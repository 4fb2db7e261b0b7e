//! Loadable program images produced by the assembler.

use std::collections::HashMap;

/// An assembled guest program: a flat byte image plus its symbol table.
///
/// The image is position-dependent: `la` pseudo-instructions bake in absolute
/// addresses computed from the base passed to
/// [`assemble_at`](crate::asm::assemble_at), so the loader must place the
/// image at [`Program::base`].
#[derive(Debug, Clone)]
pub struct Program {
    base: u64,
    image: Vec<u8>,
    labels: HashMap<String, u64>,
}

impl Program {
    /// Creates a program from raw parts.
    pub fn with_base(base: u64, image: Vec<u8>, labels: HashMap<String, u64>) -> Self {
        Program {
            base,
            image,
            labels,
        }
    }

    /// The load address this image was assembled for.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The entry point (the base address; execution starts at the first
    /// instruction unless the caller picks a label).
    pub fn entry(&self) -> u64 {
        self.labels.get("_start").copied().unwrap_or(self.base)
    }

    /// The raw little-endian image bytes.
    pub fn image(&self) -> Vec<u8> {
        self.image.clone()
    }

    /// The image length in bytes.
    pub fn len(&self) -> usize {
        self.image.len()
    }

    /// Returns true if the image is empty.
    pub fn is_empty(&self) -> bool {
        self.image.is_empty()
    }

    /// Looks up a label's absolute address.
    pub fn label(&self, name: &str) -> Option<u64> {
        self.labels.get(name).copied()
    }

    /// Iterates over all labels.
    pub fn labels(&self) -> impl Iterator<Item = (&str, u64)> {
        self.labels.iter().map(|(k, v)| (k.as_str(), *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble_at;

    #[test]
    fn entry_prefers_start_label() {
        let p = assemble_at("nop\n_start:\nhalt\n", 0x100).unwrap();
        assert_eq!(p.entry(), 0x104);
        assert_eq!(p.base(), 0x100);
    }

    #[test]
    fn entry_defaults_to_base() {
        let p = assemble_at("halt\n", 0x2000).unwrap();
        assert_eq!(p.entry(), 0x2000);
    }

    #[test]
    fn label_lookup_and_iteration() {
        let p = Program::with_base(
            0,
            vec![0; 8],
            [("a".to_string(), 0u64), ("b".to_string(), 4u64)]
                .into_iter()
                .collect(),
        );
        assert_eq!(p.label("a"), Some(0));
        assert_eq!(p.label("missing"), None);
        assert_eq!(p.labels().count(), 2);
        assert_eq!(p.len(), 8);
        assert!(!p.is_empty());
    }
}
