//! Checkpoint files: a full snapshot of the catalog so recovery replays
//! only the WAL tail.
//!
//! One checkpoint is one file, `checkpoint-<lsn>.ckpt`, written to a
//! temporary name and atomically renamed into place, then fsynced (file
//! and directory). Contents, little-endian throughout:
//!
//! ```text
//! magic "SMOQECKP" | version u32 | epoch u64 | last_lsn u64 | doc_count u32
//! per document:
//!   name str | generation u64 | counter u64
//!   dtd?  (u8 flag + str)        — the registered DTD text
//!   xml?  (u8 flag + str)        — the serialized document
//!   view_count u32, each: group str | kind u8 (0 policy, 1 spec) | text str
//!   tax bytes (u32 len, 0 = none) — `tax/persist.rs` format, labels by name
//! crc32 u32 over everything before it
//! ```
//!
//! Loading picks the highest-LSN file that passes the checksum; a corrupt
//! newer file falls back to the previous one (the previous checkpoint is
//! kept until a newer one lands). Temporary files from an interrupted
//! write never match the name pattern and are ignored (and cleaned up).

use super::failpoints::{Failpoint, FailpointRegistry};
use super::wal::{crc32, put_str, put_u32, put_u64, Cursor};
use super::DurError;
use std::io::Write;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"SMOQECKP";
const VERSION: u32 = 1;

/// How a group's view was registered — replayed through the same path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ViewKind {
    /// `register_policy`: the text is an access-control policy and the
    /// view is re-derived on load.
    Policy,
    /// `register_view_spec`: the text is the view specification itself.
    Spec,
}

/// One catalog entry as captured by a checkpoint.
pub(crate) struct CheckpointDoc {
    pub(crate) name: String,
    pub(crate) generation: u64,
    pub(crate) counter: u64,
    pub(crate) dtd: Option<String>,
    pub(crate) xml: Option<String>,
    /// `(group, kind, registration text)`, sorted by group for
    /// deterministic files.
    pub(crate) views: Vec<(String, ViewKind, String)>,
    /// Serialized TAX index (`tax/persist.rs` format), empty if none was
    /// built.
    pub(crate) tax: Vec<u8>,
}

/// A full catalog snapshot plus the WAL position it covers.
pub(crate) struct Checkpoint {
    /// Recovery epoch: how many times this directory has been recovered.
    pub(crate) epoch: u64,
    /// Every record with an LSN at or below this is reflected in the
    /// snapshot; replay starts after it.
    pub(crate) last_lsn: u64,
    pub(crate) docs: Vec<CheckpointDoc>,
}

/// Refuses a capture the `u32` framing cannot represent: `put_str`'s
/// length cast would silently truncate and the resulting file — checksum
/// intact — would never decode, burning both checkpoint slots over time.
fn check_framing(ckpt: &Checkpoint) -> Result<(), DurError> {
    fn check(doc: &str, what: &str, len: usize) -> Result<(), DurError> {
        if len > u32::MAX as usize {
            return Err(DurError::Checkpoint(format!(
                "document '{doc}': {what} of {len} bytes exceeds the u32 framing limit"
            )));
        }
        Ok(())
    }
    for doc in &ckpt.docs {
        check(&doc.name, "name", doc.name.len())?;
        check(&doc.name, "dtd", doc.dtd.as_ref().map_or(0, String::len))?;
        check(&doc.name, "xml", doc.xml.as_ref().map_or(0, String::len))?;
        check(&doc.name, "tax index", doc.tax.len())?;
        for (group, _, text) in &doc.views {
            check(&doc.name, "view group", group.len())?;
            check(&doc.name, "view text", text.len())?;
        }
    }
    Ok(())
}

fn encode(ckpt: &Checkpoint) -> Vec<u8> {
    let mut out = Vec::with_capacity(4096);
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, VERSION);
    put_u64(&mut out, ckpt.epoch);
    put_u64(&mut out, ckpt.last_lsn);
    put_u32(&mut out, ckpt.docs.len() as u32);
    for doc in &ckpt.docs {
        put_str(&mut out, &doc.name);
        put_u64(&mut out, doc.generation);
        put_u64(&mut out, doc.counter);
        for field in [&doc.dtd, &doc.xml] {
            match field {
                None => out.push(0),
                Some(text) => {
                    out.push(1);
                    put_str(&mut out, text);
                }
            }
        }
        put_u32(&mut out, doc.views.len() as u32);
        for (group, kind, text) in &doc.views {
            put_str(&mut out, group);
            out.push(match kind {
                ViewKind::Policy => 0,
                ViewKind::Spec => 1,
            });
            put_str(&mut out, text);
        }
        put_u32(&mut out, doc.tax.len() as u32);
        out.extend_from_slice(&doc.tax);
    }
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

fn decode(bytes: &[u8]) -> Option<Checkpoint> {
    if bytes.len() < MAGIC.len() + 4 || &bytes[..MAGIC.len()] != MAGIC {
        return None;
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(trailer.try_into().unwrap());
    if crc32(body) != stored {
        return None;
    }
    let mut c = Cursor::new(&body[MAGIC.len()..]);
    if c.u32()? != VERSION {
        return None;
    }
    let epoch = c.u64()?;
    let last_lsn = c.u64()?;
    let doc_count = c.u32()? as usize;
    let mut docs = Vec::with_capacity(doc_count.min(body.len() / 8));
    for _ in 0..doc_count {
        let name = c.str()?;
        let generation = c.u64()?;
        let counter = c.u64()?;
        let mut texts = [None, None];
        for slot in &mut texts {
            *slot = match c.u8()? {
                0 => None,
                1 => Some(c.str()?),
                _ => return None,
            };
        }
        let [dtd, xml] = texts;
        let view_count = c.u32()? as usize;
        let mut views = Vec::with_capacity(view_count.min(body.len() / 8));
        for _ in 0..view_count {
            let group = c.str()?;
            let kind = match c.u8()? {
                0 => ViewKind::Policy,
                1 => ViewKind::Spec,
                _ => return None,
            };
            views.push((group, kind, c.str()?));
        }
        let tax = c.bytes()?;
        docs.push(CheckpointDoc {
            name,
            generation,
            counter,
            dtd,
            xml,
            views,
            tax,
        });
    }
    if !c.is_empty() {
        return None;
    }
    Some(Checkpoint {
        epoch,
        last_lsn,
        docs,
    })
}

fn checkpoint_path(dir: &Path, lsn: u64) -> PathBuf {
    dir.join(format!("checkpoint-{lsn:020}.ckpt"))
}

/// LSN encoded in a checkpoint file name, if it is one.
fn parse_name(name: &str) -> Option<u64> {
    name.strip_prefix("checkpoint-")?
        .strip_suffix(".ckpt")?
        .parse()
        .ok()
}

/// Writes `ckpt` durably (tmp file → fsync → atomic rename → dir fsync)
/// and prunes all but the newest two checkpoint files.
pub(crate) fn write_checkpoint(
    dir: &Path,
    ckpt: &Checkpoint,
    failpoints: &FailpointRegistry,
) -> Result<PathBuf, DurError> {
    check_framing(ckpt)?;
    let bytes = encode(ckpt);
    let tmp = dir.join("checkpoint.tmp");
    let mut file = std::fs::File::create(&tmp).map_err(DurError::Io)?;
    if failpoints.fire(Failpoint::CheckpointInterrupted) {
        // Die mid-checkpoint: a partial temp file is left behind, which
        // recovery must ignore (it never matches the name pattern).
        let half = &bytes[..bytes.len() / 2];
        file.write_all(half).map_err(DurError::Io)?;
        let _ = file.sync_all();
        return Err(DurError::Injected(Failpoint::CheckpointInterrupted.name()));
    }
    file.write_all(&bytes).map_err(DurError::Io)?;
    file.sync_all().map_err(DurError::Io)?;
    drop(file);
    let path = checkpoint_path(dir, ckpt.last_lsn);
    std::fs::rename(&tmp, &path).map_err(DurError::Io)?;
    // Persist the rename itself (directory metadata).
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    // Keep the previous checkpoint as a fallback; prune older ones.
    let mut lsns = list_checkpoints(dir)?;
    while lsns.len() > 2 {
        let oldest = lsns.remove(0);
        let _ = std::fs::remove_file(checkpoint_path(dir, oldest));
    }
    Ok(path)
}

fn list_checkpoints(dir: &Path) -> Result<Vec<u64>, DurError> {
    let mut lsns = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(DurError::Io)? {
        let entry = entry.map_err(DurError::Io)?;
        if let Some(lsn) = entry.file_name().to_str().and_then(parse_name) {
            lsns.push(lsn);
        }
    }
    lsns.sort_unstable();
    Ok(lsns)
}

/// Loads the newest checkpoint that passes its checksum, falling back to
/// older ones, together with the LSN named by the newest checkpoint file.
/// The two differ when a newer checkpoint failed its checksum: the caller
/// must then find that LSN reached by the WAL, or the fallback loses what
/// the skipped checkpoint covered. `Ok(None)` when the directory has no
/// checkpoint at all; [`DurError::Checkpoint`] when checkpoints exist but
/// none is loadable (recovering from the WAL alone would silently lose
/// the checkpointed state, so this refuses instead).
pub(crate) fn load_latest(dir: &Path) -> Result<Option<(Checkpoint, u64)>, DurError> {
    // A crash may have left a temp file behind; it holds nothing a valid
    // checkpoint doesn't, so clear it out.
    let _ = std::fs::remove_file(dir.join("checkpoint.tmp"));
    let lsns = list_checkpoints(dir)?;
    let Some(&newest) = lsns.last() else {
        return Ok(None);
    };
    for &lsn in lsns.iter().rev() {
        let bytes = std::fs::read(checkpoint_path(dir, lsn)).map_err(DurError::Io)?;
        if let Some(ckpt) = decode(&bytes) {
            return Ok(Some((ckpt, newest)));
        }
    }
    Err(DurError::Checkpoint(format!(
        "{} checkpoint file(s) present but none passes its checksum",
        lsns.len()
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            epoch: 3,
            last_lsn: 42,
            docs: vec![CheckpointDoc {
                name: "wards".into(),
                generation: 7,
                counter: 9,
                dtd: Some("<!ELEMENT hospital (patient*)>".into()),
                xml: Some("<hospital/>".into()),
                views: vec![("researchers".into(), ViewKind::Policy, "policy".into())],
                tax: vec![1, 2, 3],
            }],
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let ckpt = sample();
        let decoded = decode(&encode(&ckpt)).expect("round trip");
        assert_eq!(decoded.epoch, 3);
        assert_eq!(decoded.last_lsn, 42);
        assert_eq!(decoded.docs.len(), 1);
        let d = &decoded.docs[0];
        assert_eq!(d.name, "wards");
        assert_eq!((d.generation, d.counter), (7, 9));
        assert_eq!(d.views[0].1, ViewKind::Policy);
        assert_eq!(d.tax, vec![1, 2, 3]);
    }

    #[test]
    fn corrupt_bytes_do_not_decode() {
        let mut bytes = encode(&sample());
        for i in [0, 9, bytes.len() / 2, bytes.len() - 1] {
            bytes[i] ^= 0x10;
            assert!(decode(&bytes).is_none(), "flip at {i} must fail");
            bytes[i] ^= 0x10;
        }
        assert!(decode(&bytes[..bytes.len() - 3]).is_none());
        assert!(decode(b"short").is_none());
    }
}
