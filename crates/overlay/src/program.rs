//! Overlay programs and their declared state maps.

use crate::isa::Insn;

/// Maximum instructions per program (the overlay's program store).
pub(crate) const MAX_INSNS: usize = 4096;

/// Maximum total map entries per program (overlay SRAM budget).
pub(crate) const MAX_MAP_ENTRIES: usize = 1 << 20;

/// Maximum flow records a single flow map may declare (bounded state:
/// the overlay pre-provisions every record slot at load time).
pub(crate) const MAX_FLOW_MAP_FLOWS: usize = 1 << 16;

/// Maximum `u64` slots per flow record.
pub(crate) const MAX_FLOW_MAP_SLOTS: usize = 16;

/// Maximum named counters per program.
pub(crate) const MAX_COUNTERS: usize = 64;

/// Maximum tail bodies per program.
pub(crate) const MAX_TAILS: usize = 8;

/// A declared state map: a fixed-size array of `u64`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MapSpec {
    /// Human-readable name (used by the assembler and tools).
    pub(crate) name: String,
    /// Number of entries.
    pub(crate) size: usize,
}

impl MapSpec {
    /// Creates a map spec.
    pub fn new(name: impl Into<String>, size: usize) -> MapSpec {
        MapSpec {
            name: name.into(),
            size,
        }
    }

    /// SRAM footprint of this map in bytes (saturating: an unverified
    /// declaration may be any size).
    pub(crate) fn bytes(&self) -> u64 {
        (self.size as u64).saturating_mul(8)
    }
}

/// A declared per-flow scratch map: up to `max_flows` records of
/// `slots` `u64`s each, keyed on the parser's packed 128-bit flow key.
/// Bounded by construction — the overlay charges the full footprint at
/// load time, so a flow map can never grow past its declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowMapSpec {
    /// Human-readable name (used by the assembler and tools).
    pub(crate) name: String,
    /// `u64` slots per flow record.
    pub(crate) slots: usize,
    /// Maximum concurrent flows with a record.
    pub(crate) max_flows: usize,
}

impl FlowMapSpec {
    /// Creates a flow-map spec.
    pub fn new(name: impl Into<String>, slots: usize, max_flows: usize) -> FlowMapSpec {
        FlowMapSpec {
            name: name.into(),
            slots,
            max_flows,
        }
    }

    /// SRAM footprint in bytes: every record slot plus the 16-byte flow
    /// key, pre-provisioned for the declared flow capacity.
    pub(crate) fn bytes(&self) -> u64 {
        let record = (self.slots as u64).saturating_mul(8).saturating_add(16);
        record.saturating_mul(self.max_flows as u64)
    }
}

/// A named tail body: a second verified instruction stream the main
/// body (or an earlier tail) can transfer into via `tailcall`. Tails
/// share the program's map/flow-map/counter namespace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct TailBody {
    /// Human-readable name (assembler section label).
    pub(crate) name: String,
    /// Instruction stream.
    pub(crate) insns: Vec<Insn>,
}

/// A complete overlay program: instructions plus declared maps.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Program {
    /// Policy name (shown by `knetstat`/control-plane listings).
    pub name: String,
    /// Instruction stream.
    pub insns: Vec<Insn>,
    /// Declared maps, addressed by index.
    pub(crate) maps: Vec<MapSpec>,
    /// Declared per-flow scratch maps, addressed by index.
    pub(crate) flow_maps: Vec<FlowMapSpec>,
    /// Declared saturating counters, addressed by index.
    pub(crate) counters: Vec<String>,
    /// Tail bodies, addressed by index.
    pub(crate) tails: Vec<TailBody>,
}

impl Program {
    /// Creates a program.
    pub fn new(name: impl Into<String>, insns: Vec<Insn>, maps: Vec<MapSpec>) -> Program {
        Program {
            name: name.into(),
            insns,
            maps,
            flow_maps: Vec::new(),
            counters: Vec::new(),
            tails: Vec::new(),
        }
    }

    /// Builder: declares a per-flow scratch map.
    pub fn with_flow_map(mut self, spec: FlowMapSpec) -> Program {
        self.flow_maps.push(spec);
        self
    }

    /// Builder: declares a named saturating counter.
    pub fn with_counter(mut self, name: impl Into<String>) -> Program {
        self.counters.push(name.into());
        self
    }

    /// Builder: appends a tail body.
    pub fn with_tail(mut self, name: impl Into<String>, insns: Vec<Insn>) -> Program {
        self.tails.push(TailBody {
            name: name.into(),
            insns,
        });
        self
    }

    /// Returns the number of instructions in the main body.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.insns.len()
    }

    /// Returns `true` for an empty program (always rejected by the
    /// verifier).
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    /// Total instructions across the main body and every tail — what
    /// the program store holds and the worst-case cycle bound sums.
    pub fn total_insns(&self) -> usize {
        self.insns.len() + self.tails.iter().map(|t| t.insns.len()).sum::<usize>()
    }

    /// Returns the SRAM footprint of the program: instruction store
    /// (8 bytes per instruction, as a packed overlay encoding, tails
    /// included) plus all map, flow-map and counter state.
    pub fn sram_bytes(&self) -> u64 {
        let code_and_counters = (self.total_insns() + self.counters.len()) as u64 * 8;
        let maps = self.maps.iter().map(MapSpec::bytes);
        let flow_maps = self.flow_maps.iter().map(FlowMapSpec::bytes);
        maps.chain(flow_maps)
            .fold(code_and_counters, u64::saturating_add)
    }

    /// A deterministic content fingerprint (FNV-1a over name, instruction
    /// stream and map layout). Two programs fingerprint equal iff their
    /// loaded behaviour is identical, so the control plane's audit can
    /// compare NIC-resident programs against the policy store without
    /// holding full copies.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = Fnv1a::new();
        self.name.hash(&mut h);
        self.insns.hash(&mut h);
        for m in &self.maps {
            m.name.hash(&mut h);
            m.size.hash(&mut h);
        }
        // The eBPF-class extensions hash only when present, so programs
        // that use none of them fingerprint exactly as they always did.
        for fm in &self.flow_maps {
            fm.name.hash(&mut h);
            fm.slots.hash(&mut h);
            fm.max_flows.hash(&mut h);
        }
        for c in &self.counters {
            c.hash(&mut h);
        }
        for t in &self.tails {
            t.name.hash(&mut h);
            t.insns.hash(&mut h);
        }
        h.finish()
    }
}

/// FNV-1a, used so fingerprints are stable across runs and toolchains
/// (`DefaultHasher` promises neither).
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl std::hash::Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Verdict;

    #[test]
    fn footprint_counts_insns_and_maps() {
        let p = Program::new(
            "p",
            vec![Insn::Ret {
                verdict: Verdict::Pass,
            }],
            vec![MapSpec::new("counters", 256)],
        );
        assert_eq!(p.sram_bytes(), 8 + 256 * 8);
        assert_eq!(p.len(), 1);
        assert!(!p.is_empty());
    }

    #[test]
    fn map_spec_bytes() {
        assert_eq!(MapSpec::new("m", 1024).bytes(), 8192);
    }

    #[test]
    fn fingerprint_tracks_content() {
        let base = Program::new(
            "p",
            vec![Insn::Ret {
                verdict: Verdict::Pass,
            }],
            vec![MapSpec::new("counters", 256)],
        );
        assert_eq!(base.fingerprint(), base.clone().fingerprint());
        let renamed = Program::new("q", base.insns.clone(), base.maps.clone());
        assert_ne!(base.fingerprint(), renamed.fingerprint());
        let reinsn = Program::new(
            "p",
            vec![Insn::Ret {
                verdict: Verdict::Drop,
            }],
            base.maps.clone(),
        );
        assert_ne!(base.fingerprint(), reinsn.fingerprint());
        let remap = Program::new("p", base.insns.clone(), vec![MapSpec::new("counters", 128)]);
        assert_ne!(base.fingerprint(), remap.fingerprint());
    }
}
