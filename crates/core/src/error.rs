//! Unified engine error type.

use std::fmt;

/// Any error the engine can surface to a caller.
#[derive(Debug)]
pub enum EngineError {
    /// XML parsing / validation / I/O.
    Xml(smoqe_xml::XmlError),
    /// Regular XPath syntax.
    Query(smoqe_rxpath::ParseError),
    /// Policy parsing or annotation errors.
    Policy(smoqe_view::PolicyError),
    /// View specification errors.
    View(smoqe_view::ViewError),
    /// No document has been loaded yet.
    NoDocument,
    /// No document with this catalog name exists.
    UnknownDocument(String),
    /// The session's user group has no registered view.
    UnknownGroup(String),
    /// Direct document access requested without admin rights.
    AccessDenied,
    /// A batched evaluation mixed sessions of different documents or
    /// engines — one snapshot can only serve one document.
    BatchMismatch,
    /// An update statement could not be parsed or applied (admin
    /// surface; group sessions see most of these as [`UpdateDenied`]).
    Update(smoqe_update::UpdateError),
    /// The session's security view rejects the update. Deliberately
    /// carries no detail: a write to a hidden node, to a node that does
    /// not exist, or whose result would reveal hidden structure all
    /// produce this exact error, so denials leak nothing.
    UpdateDenied,
    /// The durability layer failed: WAL append, checkpoint, corruption
    /// found during recovery, or an injected crash (fault injection).
    Durability(crate::durable::DurError),
    /// The request's deadline passed before evaluation finished; the scan
    /// was abandoned mid-flight. Like [`EngineError::UpdateDenied`], this
    /// deliberately carries no detail — how far the evaluation got (and
    /// therefore how much hidden structure it touched) must not leak.
    DeadlineExceeded,
    /// The request was cooperatively cancelled (caller disconnected or an
    /// operator killed it); the scan was abandoned mid-flight. Carries no
    /// detail, for the same opacity reason as
    /// [`EngineError::DeadlineExceeded`].
    Cancelled,
}

impl EngineError {
    /// Stable machine-readable code for this error, for wire protocols and
    /// logs: serializers must never string-match `Display` output (which
    /// is free to change) to recover the variant. Codes are part of the
    /// protocol contract and never renumbered — new variants append.
    /// Retired codes are never reused: 9 was `no_stream_source`, which
    /// became unreachable once every document streams its own buffer.
    ///
    /// [`EngineError::UpdateDenied`] deliberately maps hidden,
    /// conditionally-hidden and non-existent targets to **one** code with
    /// no payload, so a serialized denial is byte-identical whatever its
    /// cause.
    pub fn code(&self) -> u16 {
        match self {
            EngineError::Xml(_) => 1,
            EngineError::Query(_) => 2,
            EngineError::Policy(_) => 3,
            EngineError::View(_) => 4,
            EngineError::NoDocument => 5,
            EngineError::UnknownDocument(_) => 6,
            EngineError::UnknownGroup(_) => 7,
            EngineError::AccessDenied => 8,
            EngineError::BatchMismatch => 10,
            EngineError::Update(_) => 11,
            EngineError::UpdateDenied => 12,
            EngineError::Durability(_) => 13,
            EngineError::DeadlineExceeded => 14,
            EngineError::Cancelled => 15,
        }
    }

    /// Short stable identifier paired with [`EngineError::code`] (same
    /// contract: append-only, never renamed).
    pub fn code_name(&self) -> &'static str {
        match self {
            EngineError::Xml(_) => "xml",
            EngineError::Query(_) => "query",
            EngineError::Policy(_) => "policy",
            EngineError::View(_) => "view",
            EngineError::NoDocument => "no_document",
            EngineError::UnknownDocument(_) => "unknown_document",
            EngineError::UnknownGroup(_) => "unknown_group",
            EngineError::AccessDenied => "access_denied",
            EngineError::BatchMismatch => "batch_mismatch",
            EngineError::Update(_) => "update",
            EngineError::UpdateDenied => "update_denied",
            EngineError::Durability(_) => "durability",
            EngineError::DeadlineExceeded => "deadline_exceeded",
            EngineError::Cancelled => "cancelled",
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Xml(e) => write!(f, "{e}"),
            EngineError::Query(e) => write!(f, "query error: {e}"),
            EngineError::Policy(e) => write!(f, "{e}"),
            EngineError::View(e) => write!(f, "{e}"),
            EngineError::NoDocument => write!(f, "no document loaded"),
            EngineError::UnknownDocument(d) => {
                write!(f, "no document named '{d}' in the catalog")
            }
            EngineError::UnknownGroup(g) => write!(f, "no view registered for group '{g}'"),
            EngineError::AccessDenied => {
                write!(f, "direct document access requires an admin session")
            }
            EngineError::BatchMismatch => {
                write!(
                    f,
                    "batched evaluation requires all sessions to target the same document of the same engine"
                )
            }
            EngineError::Update(e) => write!(f, "{e}"),
            EngineError::UpdateDenied => {
                write!(f, "update denied by the session's security policy")
            }
            EngineError::Durability(e) => write!(f, "{e}"),
            EngineError::DeadlineExceeded => {
                write!(f, "request deadline exceeded before evaluation finished")
            }
            EngineError::Cancelled => write!(f, "request cancelled before evaluation finished"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Xml(e) => Some(e),
            EngineError::Query(e) => Some(e),
            EngineError::Policy(e) => Some(e),
            EngineError::View(e) => Some(e),
            EngineError::Update(e) => Some(e),
            EngineError::Durability(e) => Some(e),
            _ => None,
        }
    }
}

impl From<smoqe_xml::XmlError> for EngineError {
    fn from(e: smoqe_xml::XmlError) -> Self {
        EngineError::Xml(e)
    }
}
impl From<smoqe_rxpath::ParseError> for EngineError {
    fn from(e: smoqe_rxpath::ParseError) -> Self {
        EngineError::Query(e)
    }
}
impl From<smoqe_view::PolicyError> for EngineError {
    fn from(e: smoqe_view::PolicyError) -> Self {
        EngineError::Policy(e)
    }
}
impl From<smoqe_view::ViewError> for EngineError {
    fn from(e: smoqe_view::ViewError) -> Self {
        EngineError::View(e)
    }
}
impl From<smoqe_update::UpdateError> for EngineError {
    fn from(e: smoqe_update::UpdateError) -> Self {
        EngineError::Update(e)
    }
}
impl From<smoqe_hype::Interrupt> for EngineError {
    fn from(i: smoqe_hype::Interrupt) -> Self {
        match i {
            smoqe_hype::Interrupt::DeadlineExceeded => EngineError::DeadlineExceeded,
            smoqe_hype::Interrupt::Cancelled => EngineError::Cancelled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(EngineError::NoDocument.to_string().contains("no document"));
        assert!(EngineError::UnknownGroup("x".into())
            .to_string()
            .contains("'x'"));
        assert!(EngineError::UnknownDocument("d".into())
            .to_string()
            .contains("'d'"));
        assert!(EngineError::AccessDenied.to_string().contains("admin"));
        assert!(EngineError::BatchMismatch.to_string().contains("batch"));
        assert!(EngineError::UpdateDenied.to_string().contains("denied"));
        assert!(EngineError::Update(smoqe_update::UpdateError::NoTarget)
            .to_string()
            .contains("no node"));
    }

    #[test]
    fn update_denied_reveals_nothing_about_the_cause() {
        // The whole point of the variant: no payload, one message.
        let a = EngineError::UpdateDenied.to_string();
        let b = EngineError::UpdateDenied.to_string();
        assert_eq!(a, b);
        assert!(!a.contains("hidden") && !a.contains("exist"));
    }

    #[test]
    fn codes_are_distinct_and_stable() {
        // Every variant, so the retired-code check below covers them all.
        let variants = [
            EngineError::Xml(smoqe_xml::XmlError::Invalid("x".into())),
            EngineError::Query(smoqe_rxpath::ParseError::new("q", 0)),
            EngineError::Policy(smoqe_view::PolicyError::UnknownEdge {
                parent: "a".into(),
                child: "b".into(),
            }),
            EngineError::View(smoqe_view::ViewError::MissingSigma("a".into(), "b".into())),
            EngineError::NoDocument,
            EngineError::UnknownDocument("d".into()),
            EngineError::UnknownGroup("g".into()),
            EngineError::AccessDenied,
            EngineError::BatchMismatch,
            EngineError::Update(smoqe_update::UpdateError::NoTarget),
            EngineError::UpdateDenied,
            EngineError::Durability(crate::durable::DurError::Crashed),
            EngineError::DeadlineExceeded,
            EngineError::Cancelled,
        ];
        let mut codes: Vec<u16> = variants.iter().map(EngineError::code).collect();
        // Code 9 is retired; no variant may take it over.
        assert!(!codes.contains(&9), "retired code 9 reused");
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), variants.len(), "codes must be distinct");
        // Pinned values: renumbering is a wire-protocol break.
        assert_eq!(EngineError::UpdateDenied.code(), 12);
        assert_eq!(EngineError::UpdateDenied.code_name(), "update_denied");
        assert_eq!(EngineError::AccessDenied.code(), 8);
        assert_eq!(EngineError::BatchMismatch.code(), 10);
        let dur = EngineError::Durability(crate::durable::DurError::Crashed);
        assert_eq!(dur.code(), 13);
        assert_eq!(dur.code_name(), "durability");
        assert_eq!(EngineError::DeadlineExceeded.code(), 14);
        assert_eq!(
            EngineError::DeadlineExceeded.code_name(),
            "deadline_exceeded"
        );
        assert_eq!(EngineError::Cancelled.code(), 15);
        assert_eq!(EngineError::Cancelled.code_name(), "cancelled");
    }

    #[test]
    fn interrupt_errors_reveal_nothing_about_progress() {
        // A timed-out or cancelled scan must not say how far it got: one
        // fixed message per variant, no payload.
        let a = EngineError::from(smoqe_hype::Interrupt::DeadlineExceeded).to_string();
        assert_eq!(a, EngineError::DeadlineExceeded.to_string());
        assert!(!a.contains("hidden") && !a.contains("node"));
        let b = EngineError::from(smoqe_hype::Interrupt::Cancelled).to_string();
        assert_eq!(b, EngineError::Cancelled.to_string());
    }
}
