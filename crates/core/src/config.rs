//! Database configuration.

use ir2_storage::{CostModel, Result, StorageError};

/// Configuration of a [`SpatialKeywordDb`](crate::SpatialKeywordDb),
/// mirroring the knobs the paper's experiments turn.
#[derive(Debug, Clone, PartialEq)]
pub struct DbConfig {
    /// Node capacity override; `None` derives the fanout that packs a
    /// plain R-Tree node into one 4 KiB block (the paper's method).
    pub capacity: Option<usize>,
    /// Leaf signature length in bytes (the paper's `r`: 189 B for Hotels,
    /// 8 B for Restaurants).
    pub sig_bytes: usize,
    /// Signature bits set per word.
    pub sig_k: u32,
    /// Hash seed for signatures.
    pub seed: u64,
    /// Build trees by STR bulk loading (fast; default) instead of repeated
    /// insertion (the paper's method, exercised by the maintenance
    /// experiments).
    pub bulk_load: bool,
    /// Disk cost model used to convert I/O counts into simulated time.
    pub cost_model: CostModel,
    /// Apply the paper's literal MIR²-Tree maintenance rule (recompute all
    /// ancestor signatures from objects on every insert).
    pub mir_strict: bool,
    /// Expected distinct words per object, used to size the MIR²-Tree's
    /// per-level schemes; `None` measures it from the data while building.
    pub avg_words_hint: Option<f64>,
    /// Decoded-node cache capacity per tree, in nodes (0 disables the
    /// cache). Warm traversals then skip checksum verification and entry
    /// decoding, and test signatures through the bit-sliced block each
    /// cached image holds; a commit invalidates the images of the nodes it
    /// wrote and no others.
    pub node_cache: usize,
}

impl Default for DbConfig {
    fn default() -> Self {
        Self {
            capacity: None,
            sig_bytes: 16,
            sig_k: 4,
            seed: 0xC0FFEE,
            bulk_load: true,
            cost_model: CostModel::HDD_10K,
            mir_strict: false,
            avg_words_hint: None,
            node_cache: 0,
        }
    }
}

impl DbConfig {
    /// The paper's Hotels experiment configuration (189-byte signatures).
    pub fn hotels() -> Self {
        Self {
            sig_bytes: 189,
            ..Self::default()
        }
    }

    /// The paper's Restaurants experiment configuration (8-byte
    /// signatures).
    pub fn restaurants() -> Self {
        Self {
            sig_bytes: 8,
            ..Self::default()
        }
    }

    /// Sets the leaf signature length (builder style).
    pub fn with_sig_bytes(mut self, bytes: usize) -> Self {
        self.sig_bytes = bytes;
        self
    }

    /// Sets the node capacity (builder style).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = Some(capacity);
        self
    }

    /// Selects insertion-based construction (builder style).
    pub fn with_incremental_build(mut self) -> Self {
        self.bulk_load = false;
        self
    }

    /// Sets the decoded-node cache capacity in nodes, 0 to disable
    /// (builder style).
    pub fn with_node_cache(mut self, nodes: usize) -> Self {
        self.node_cache = nodes;
        self
    }

    /// Serializes the configuration for the catalog.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(40);
        out.extend_from_slice(&(self.capacity.unwrap_or(0) as u32).to_le_bytes());
        out.extend_from_slice(&(self.sig_bytes as u32).to_le_bytes());
        out.extend_from_slice(&self.sig_k.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.push(self.bulk_load as u8);
        out.push(self.mir_strict as u8);
        out.extend_from_slice(&(self.cost_model.random_access.as_micros() as u64).to_le_bytes());
        out.extend_from_slice(
            &(self.cost_model.sequential_access.as_micros() as u64).to_le_bytes(),
        );
        out.extend_from_slice(&self.avg_words_hint.unwrap_or(0.0).to_le_bytes());
        out.extend_from_slice(&(self.node_cache as u32).to_le_bytes());
        // Reserved (an older format's prefetch worker count): zeros, so
        // the record keeps its 54-byte shape; `decode` ignores them.
        out.extend_from_slice(&[0u8; 4]);
        out
    }

    /// Deserializes a configuration written by [`DbConfig::encode`].
    pub fn decode(buf: &[u8]) -> Result<Self> {
        if buf.len() < 46 {
            return Err(StorageError::Corrupt("config record too short".into()));
        }
        let capacity = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes")) as usize;
        let sig_bytes = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes")) as usize;
        let sig_k = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes"));
        let seed = u64::from_le_bytes(buf[12..20].try_into().expect("8 bytes"));
        let bulk_load = buf[20] != 0;
        let mir_strict = buf[21] != 0;
        let rand_us = u64::from_le_bytes(buf[22..30].try_into().expect("8 bytes"));
        let seq_us = u64::from_le_bytes(buf[30..38].try_into().expect("8 bytes"));
        let hint = f64::from_le_bytes(buf[38..46].try_into().expect("8 bytes"));
        // The cache knob was appended later; records written before it
        // decode to the old behavior (cache off). Bytes 50..54 are
        // reserved and ignored, whatever they hold.
        let node_cache = buf.get(46..50).map_or(0, |b| {
            u32::from_le_bytes(b.try_into().expect("4 bytes")) as usize
        });
        Ok(Self {
            capacity: (capacity != 0).then_some(capacity),
            sig_bytes,
            sig_k,
            seed,
            bulk_load,
            mir_strict,
            cost_model: CostModel {
                random_access: std::time::Duration::from_micros(rand_us),
                sequential_access: std::time::Duration::from_micros(seq_us),
            },
            avg_words_hint: (hint != 0.0).then_some(hint),
            node_cache,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_signature_length() {
        assert_eq!(DbConfig::hotels().sig_bytes, 189);
        assert_eq!(DbConfig::restaurants().sig_bytes, 8);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let cfg = DbConfig::hotels()
            .with_capacity(113)
            .with_incremental_build()
            .with_node_cache(4096);
        let back = DbConfig::decode(&cfg.encode()).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn record_written_with_a_prefetch_count_decodes_without_it() {
        // What the parent of PR 21 wrote for
        // `hotels().with_node_cache(4096)` with its prefetch knob at 3.
        #[rustfmt::skip]
        let old: [u8; 54] = [
            0, 0, 0, 0,                         // capacity: derived
            189, 0, 0, 0,                       // sig_bytes
            4, 0, 0, 0,                         // sig_k
            0xEE, 0xFF, 0xC0, 0, 0, 0, 0, 0,    // seed
            1, 0,                               // bulk_load, mir_strict
            0x40, 0x1F, 0, 0, 0, 0, 0, 0,       // random access, 8000 us
            60, 0, 0, 0, 0, 0, 0, 0,            // sequential access, 60 us
            0, 0, 0, 0, 0, 0, 0, 0,             // avg_words_hint: none
            0, 0x10, 0, 0,                      // node_cache 4096
            3, 0, 0, 0,                         // reserved (was prefetch)
        ];
        let cfg = DbConfig::decode(&old).unwrap();
        assert_eq!(cfg, DbConfig::hotels().with_node_cache(4096));
        let again = cfg.encode();
        assert_eq!(again.len(), 54);
        assert_eq!(again[..50], old[..50]);
        assert_eq!(again[50..], [0u8; 4]);
    }

    #[test]
    fn decode_tolerates_records_without_cache_knobs() {
        // A record truncated at the pre-cache length (46 bytes) must still
        // decode, with the cache defaulting to off.
        let cfg = DbConfig::restaurants().with_node_cache(512);
        let old = &cfg.encode()[..46];
        let back = DbConfig::decode(old).unwrap();
        assert_eq!(back.node_cache, 0);
        assert_eq!(back.sig_bytes, cfg.sig_bytes);
    }

    #[test]
    fn decode_rejects_short_buffers() {
        assert!(DbConfig::decode(&[0u8; 10]).is_err());
    }
}
