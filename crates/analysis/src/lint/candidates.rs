//! The static race-candidate index that prunes dynamic race detection.
//!
//! The dynamic detector (Definition 6.4) examines pairs of simultaneous
//! internal edges for intersecting shared READ/WRITE sets. Statically,
//! an access to variable `v` by process `P` can only race with an
//! access by process `Q` if the interprocedural summaries say both
//! processes may touch `v` at all — GMOD/GREF (§5.1) over-approximate
//! every dynamic access, so any `(v, P, Q)` combination *not* in this
//! index is provably race-free and the detector never needs to compare
//! those accesses.
//!
//! [`RaceCandidates::from_modref`] builds the index; `ppd-graph`'s
//! `detect_races` consults it per (variable, process pair) when passed
//! as its `candidates` filter.

use crate::interproc::ModRef;
use crate::varset::VarSetRepr;
use ppd_lang::{BodyId, ProcId, ResolvedProgram, VarId};
use std::collections::HashSet;

/// The set of `(shared variable, process pair)` combinations that can
/// statically conflict. Process pairs are stored unordered.
#[derive(Debug, Clone, Default)]
pub struct RaceCandidates {
    pairs: HashSet<(VarId, ProcId, ProcId)>,
}

impl RaceCandidates {
    /// An empty index (prunes everything — only useful for tests).
    pub fn new() -> RaceCandidates {
        RaceCandidates::default()
    }

    /// Records that `a` and `b` may conflict on `var`. Self-pairs are
    /// ignored (a process cannot race with itself, Definition 6.4).
    /// Returns `true` if the combination was new.
    pub fn insert(&mut self, var: VarId, a: ProcId, b: ProcId) -> bool {
        if a == b {
            return false;
        }
        self.pairs.insert((var, a.min(b), a.max(b)))
    }

    /// Whether accesses to `var` by `a` and `b` must still be checked
    /// dynamically.
    pub fn allows(&self, var: VarId, a: ProcId, b: ProcId) -> bool {
        a != b && self.pairs.contains(&(var, a.min(b), a.max(b)))
    }

    /// Number of candidate combinations.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The candidate combinations, sorted (for deterministic reporting).
    pub fn to_vec(&self) -> Vec<(VarId, ProcId, ProcId)> {
        let mut v: Vec<_> = self.pairs.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Builds the index from the GMOD/GREF summaries: `(v, P, Q)` is a
    /// candidate iff one of the processes may write `v` and the other
    /// may read or write it.
    pub fn from_modref(rp: &ResolvedProgram, modref: &ModRef) -> RaceCandidates {
        let mut out = RaceCandidates::new();
        let procs: Vec<ProcId> = (0..rp.procs.len() as u32).map(ProcId).collect();
        for (i, &a) in procs.iter().enumerate() {
            let (mod_a, ref_a) = (modref.gmod(BodyId::Proc(a)), modref.gref(BodyId::Proc(a)));
            for &b in &procs[i + 1..] {
                let (mod_b, ref_b) = (modref.gmod(BodyId::Proc(b)), modref.gref(BodyId::Proc(b)));
                for v in mod_a.to_vec() {
                    if mod_b.contains(v) || ref_b.contains(v) {
                        out.insert(v, a, b);
                    }
                }
                for v in ref_a.to_vec() {
                    if mod_b.contains(v) {
                        out.insert(v, a, b);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::usedef::ProgramEffects;
    use crate::CallGraph;

    fn candidates(src: &str) -> (ResolvedProgram, RaceCandidates) {
        let rp = ppd_lang::compile(src).unwrap();
        let fx = ProgramEffects::compute(&rp);
        let cg = CallGraph::build(&rp, &fx);
        let mr = ModRef::compute(&rp, &fx, &cg);
        let cands = RaceCandidates::from_modref(&rp, &mr);
        (rp, cands)
    }

    fn var(rp: &ResolvedProgram, name: &str) -> VarId {
        (0..rp.var_count() as u32).map(VarId).find(|&v| rp.var_name(v) == name).unwrap()
    }

    #[test]
    fn write_write_and_read_write_are_candidates() {
        let (rp, c) = candidates(
            "shared int w; shared int r; \
             process A { w = 1; r = 2; } \
             process B { w = 3; print(r); }",
        );
        assert!(c.allows(var(&rp, "w"), ProcId(0), ProcId(1)));
        assert!(c.allows(var(&rp, "r"), ProcId(1), ProcId(0)), "order-insensitive");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn read_read_is_not_a_candidate() {
        let (rp, c) =
            candidates("shared int ro; process A { print(ro); } process B { print(ro); }");
        assert!(!c.allows(var(&rp, "ro"), ProcId(0), ProcId(1)));
        assert!(c.is_empty());
    }

    #[test]
    fn accesses_through_calls_are_candidates() {
        // B touches g only via f(): GMOD closure must still see it.
        let (rp, c) = candidates(
            "shared int g; int f() { g = g + 1; return g; } \
             process A { g = 5; } \
             process B { print(f()); }",
        );
        assert!(c.allows(var(&rp, "g"), ProcId(0), ProcId(1)));
    }

    #[test]
    fn disjoint_processes_yield_nothing() {
        let (rp, c) = candidates(
            "shared int x; shared int y; \
             process A { x = x + 1; } \
             process B { y = y + 1; }",
        );
        assert!(!c.allows(var(&rp, "x"), ProcId(0), ProcId(1)));
        assert!(!c.allows(var(&rp, "y"), ProcId(0), ProcId(1)));
    }

    #[test]
    fn self_pairs_are_rejected() {
        let mut c = RaceCandidates::new();
        assert!(!c.insert(VarId(0), ProcId(1), ProcId(1)));
        assert!(!c.allows(VarId(0), ProcId(1), ProcId(1)));
    }
}
