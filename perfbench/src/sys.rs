//! The two foreign calls the benchmark makes (Linux, 64-bit).
//!
//! * `ppoll`: waiting on a socket with sub-millisecond precision. Socket
//!   read timeouts count in scheduler ticks (10 ms at 100 Hz), far too
//!   coarse for an open loop, and the standard library has no `poll`.
//! * `clock_gettime`: process and thread CPU time, which — unlike wall
//!   time — a shared host's CPU steal does not inflate.

use std::os::fd::AsRawFd;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Waits until `socket` is readable (or hung up) or `timeout` passes;
/// returns whether it is readable.
pub fn readable(socket: &impl AsRawFd, timeout: Duration) -> std::io::Result<bool> {
    let mut fd = PollFd {
        fd: socket.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live locals laid out as Linux's
    // `struct pollfd` and 64-bit `struct timespec` (`repr(C)`), borrowed
    // for the duration of the call only; `nfds` is 1, matching the single
    // `pollfd`; a null signal mask leaves the mask unchanged.
    let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    if n < 0 {
        let e = std::io::Error::last_os_error();
        return if e.kind() == std::io::ErrorKind::Interrupted {
            Ok(false)
        } else {
            Err(e)
        };
    }
    Ok(n > 0)
}

fn cpu_time(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live local laid out as a 64-bit `struct timespec`,
    // exclusively borrowed for the call; both clock ids are valid on Linux.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time consumed so far by all threads of this process.
pub fn process_cpu() -> Duration {
    cpu_time(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed so far by the calling thread.
pub fn thread_cpu() -> Duration {
    cpu_time(CLOCK_THREAD_CPUTIME_ID)
}

/// The host's cumulative CPU steal, in clock ticks (the eighth field of
/// `/proc/stat`'s `cpu` line); `None` where it is not reported.
pub fn host_steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}
