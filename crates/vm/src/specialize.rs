//! Profile-guided trace specialization: a bytecode→bytecode pass.
//!
//! The paper's §2.4 specializes code against the input values that
//! dominate a segment's profile. This module carries that idea into the
//! bytecode engine in two steps:
//!
//! 1. **Trace mining.** A profiling run on the generic bytecode engine
//!    records a [`DispatchTrace`] — dynamic counts of adjacent opcode
//!    *kind* pairs (see [`RunConfig::record_trace`]). [`DispatchTrace::top_pairs`]
//!    ranks the recurring pairs; these replace the hand-picked
//!    superinstruction set with discovered ones.
//! 2. **Plan application.** [`SpecPlan`] names the mined hot pairs plus
//!    the dominant key per hot memo segment (mined from the value-set
//!    profiles the pipeline already collects). The `build` pass — run
//!    once per module before execution — substitutes `Super2` fusions
//!    program-wide and clones each planned segment body with the
//!    dominant inputs folded in as immediates, guarded by an exact key
//!    comparison at `MemoEnter` that *deopts* to the generic body on
//!    mismatch. Its output is an ordinary bytecode module that the one
//!    bytecode dispatch loop runs.
//!
//! The contract (DESIGN.md §8j): specialized observables — modelled
//! cycles, energy, table traffic, dependency fingerprints, profile
//! data, and printed output — are bit-for-bit identical to the other
//! engines'. Fusion joins only straight-line instructions (no
//! observable point separates their charges); folding preserves each
//! replaced read's charge as an immediate; the guard is host-side only
//! and charges zero modelled cycles either way.
//!
//! [`RunConfig::record_trace`]: crate::interp::RunConfig::record_trace

use crate::bytecode::{op_kind, BcModule, FastArg, Instr, OP_KINDS};
use crate::cost::CostModel;
use crate::interp::binary_value;
use crate::lower::{Coerce, LMemo, OpLoc, WriteCost};
use crate::value::Value;
use minic::ast::BinOp;

// ---------------------------------------------------------------------
// Dispatch traces
// ---------------------------------------------------------------------

/// Recording budget for a [`DispatchTrace`]: dispatches beyond this are
/// not recorded (see [`DispatchTrace::saturated`]). Deterministic — the
/// same program and input always record the same prefix.
const TRACE_DISPATCH_CAP: u64 = 8_000_000;

/// Dynamic counts of adjacent opcode-kind pairs, recorded by the generic
/// bytecode engine when [`crate::RunConfig::record_trace`] is set.
/// Profile probes are skipped: they never occur in the transformed code a
/// plan is applied to. Kind codes are opaque (an internal opcode classification); they only need
/// to round-trip into [`SpecPlan::hot_pairs`].
#[derive(Debug, Clone)]
pub struct DispatchTrace {
    counts: Vec<u64>,
    prev: u8,
    total: u64,
}

impl Default for DispatchTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl DispatchTrace {
    /// An empty trace.
    pub fn new() -> Self {
        DispatchTrace {
            counts: vec![0; OP_KINDS * OP_KINDS],
            prev: 0,
            total: 0,
        }
    }

    /// Records one dispatch of kind `k` (pairing it with the previous
    /// dispatch). One L1-resident array increment — cheap enough for a
    /// profiling run.
    #[inline]
    pub(crate) fn step(&mut self, k: u8) {
        self.counts[self.prev as usize * OP_KINDS + k as usize] += 1;
        self.prev = k;
        self.total += 1;
    }

    /// Total dispatches recorded.
    pub fn dispatches(&self) -> u64 {
        self.total
    }

    /// Whether the recording budget is spent. The pair mix of a
    /// steady-state dispatch loop saturates within the first few million
    /// dispatches, so the recorder stops paying its per-dispatch
    /// increment after a fixed budget of 8M dispatches and the profiling
    /// run proceeds at the generic engine's speed.
    pub fn saturated(&self) -> bool {
        self.total >= TRACE_DISPATCH_CAP
    }

    /// Dynamic occurrences of the adjacent pair `(a, b)`.
    pub fn pair_count(&self, a: u8, b: u8) -> u64 {
        self.counts[a as usize * OP_KINDS + b as usize]
    }

    /// The `max_pairs` most frequent adjacent pairs with at least
    /// `min_count` dynamic occurrences, hottest first (ties broken by
    /// kind code, so mining is deterministic).
    pub fn top_pairs(&self, max_pairs: usize, min_count: u64) -> Vec<(u8, u8)> {
        let mut ranked: Vec<(u64, u8, u8)> = Vec::new();
        for a in 0..OP_KINDS {
            for b in 0..OP_KINDS {
                let n = self.counts[a * OP_KINDS + b];
                if n >= min_count {
                    ranked.push((n, a as u8, b as u8));
                }
            }
        }
        ranked.sort_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)).then(x.2.cmp(&y.2)));
        ranked
            .into_iter()
            .take(max_pairs)
            .map(|(_, a, b)| (a, b))
            .collect()
    }
}

// ---------------------------------------------------------------------
// Specialization plans
// ---------------------------------------------------------------------

/// The dominant key of one memo segment, addressed by its table
/// placement (`(table, slot)` is unique per transformed segment and
/// stable across lowering orders).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DominantKey {
    /// Runtime table index of the segment.
    pub table: u32,
    /// Slot within the (possibly merged) table.
    pub slot: u32,
    /// The dominant key words, in memo-key layout (the value-set
    /// profiles record exactly this layout).
    pub key: Vec<u64>,
}

/// A mined specialization plan: which instruction pairs to fuse
/// program-wide and which segment bodies to clone against their
/// dominant inputs. An empty plan is legal: it builds code identical to
/// the generic bytecode.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpecPlan {
    /// Opcode-kind pairs worth fusing, from [`DispatchTrace::top_pairs`].
    pub hot_pairs: Vec<(u8, u8)>,
    /// Dominant keys of the top-k hottest profiled segments.
    pub dominants: Vec<DominantKey>,
}

/// Counters a run of plan-built code reports in
/// [`crate::Outcome::spec`]. Host-side observability only — none of
/// these affect modelled cycles or table state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecStats {
    /// Static count of `Super2` fusions applied to the module.
    pub fused_sites: u64,
    /// Static count of specialized segment-body clones built.
    pub cloned_segments: u64,
    /// Guard evaluations (table misses at a guarded `MemoEnter`).
    pub guard_probes: u64,
    /// Guards that matched — the specialized clone ran.
    pub guard_hits: u64,
    /// Guards that mismatched — fell back to the generic body
    /// (exactly once per missed probe).
    pub deopts: u64,
}

// ---------------------------------------------------------------------
// Plan application
// ---------------------------------------------------------------------

/// A guarded segment: at a table miss on `MemoEnter` at `enter_pc`, a
/// built key equal to `key` (with every folded input type-checked
/// against its baked value class) jumps to the clone at `target`;
/// anything else falls through to the generic body. Evaluated by the
/// bytecode dispatch loop's `memo_enter`.
#[derive(Debug, Clone)]
pub(crate) struct SpecGuard {
    /// The original `MemoEnter` pc this guard applies at (a cloned
    /// nested `MemoEnter` sits at a different pc and takes the generic
    /// path).
    pub(crate) enter_pc: u32,
    /// Baked dominant key words.
    pub(crate) key: Vec<u64>,
    /// Frame offsets of folded inputs with their float-ness: the guard
    /// verifies the live value class, because an integer key word is
    /// bit-identical to a pointer's (folding a pointer as an integer
    /// immediate would change semantics).
    pub(crate) folds: Vec<(u32, bool)>,
    /// Clone entry pc.
    pub(crate) target: u32,
}

/// One fused pair, pre-combined at build time: a dedicated body for each
/// hot mined shape that elides the intermediate stack round-trip and the
/// second dispatch. Both halves of every shape are straight-line
/// instructions — they advance the pc by one and touch no frame, region,
/// or budget check — and each variant performs the same operations in
/// the same order as its unfused halves, so cycle charges, traps,
/// dependency notes, and counter updates are bit-identical (`tick` is a
/// pure counter add with no checkpoint between the halves, and the
/// operand stack between them is unobservable).
#[derive(Debug, Clone)]
pub(crate) enum PairCode {
    /// `PushI(v)` + `Binary(op, c)` — the constant is the rhs.
    PushIBinary { v: i64, op: BinOp, c: u64 },
    /// `Binary(op, c)` + `PushI(v)`.
    BinaryPushI { op: BinOp, c: u64, v: i64 },
    /// `Binary(op1, c1)` + `Binary(op2, c2)` — the first result is the
    /// second's rhs.
    BinaryBinary {
        op1: BinOp,
        c1: u64,
        op2: BinOp,
        c2: u64,
    },
    /// `Binary(op, c)` + `StoreLocal` — the result is stored directly.
    BinaryStore {
        op: BinOp,
        c: u64,
        slot: u32,
        coerce: Coerce,
        write_cost: WriteCost,
        keep: bool,
    },
    /// `BinaryFast` + `Binary(op2, c2)` — the fast result is the rhs.
    FastBinary {
        op1: BinOp,
        a: FastArg,
        b: FastArg,
        c1: u64,
        op2: BinOp,
        c2: u64,
    },
    /// `BinaryFast` + `StoreLocal` — the fast result is stored directly.
    FastStore {
        op: BinOp,
        a: FastArg,
        b: FastArg,
        c: u64,
        slot: u32,
        coerce: Coerce,
        write_cost: WriteCost,
        keep: bool,
    },
    /// `ReadLocal(off)` + `Binary(op, c)` — the slot value is the rhs.
    ReadBinary { off: u32, op: BinOp, c: u64 },
    /// `ReadLocal(off)` + `BinaryFast` (operands off-stack, two pushes).
    ReadFast {
        off: u32,
        op: BinOp,
        a: FastArg,
        b: FastArg,
        c: u64,
    },
    /// `BinaryFast` + `ReadLocal(off)`.
    FastRead {
        op: BinOp,
        a: FastArg,
        b: FastArg,
        c: u64,
        off: u32,
    },
    /// `LoopCount(loop_idx)` + `ReadLocal(off)`.
    CountRead { loop_idx: u32, off: u32 },
}

/// Pre-combines a fused pair into its [`PairCode`], or `None` when the
/// shape has no dedicated body (executing both halves through a generic
/// fallback measured slower than leaving them to the dispatch loop).
fn combine(a: &Instr, b: &Instr) -> Option<PairCode> {
    let pair = match (a, b) {
        (Instr::PushI(v), Instr::Binary(op, c)) => PairCode::PushIBinary {
            v: *v,
            op: *op,
            c: *c,
        },
        (Instr::Binary(op, c), Instr::PushI(v)) => PairCode::BinaryPushI {
            op: *op,
            c: *c,
            v: *v,
        },
        (Instr::Binary(op1, c1), Instr::Binary(op2, c2)) => PairCode::BinaryBinary {
            op1: *op1,
            c1: *c1,
            op2: *op2,
            c2: *c2,
        },
        (
            Instr::Binary(op, c),
            Instr::StoreLocal {
                slot,
                coerce,
                write_cost,
                keep,
            },
        ) => PairCode::BinaryStore {
            op: *op,
            c: *c,
            slot: *slot,
            coerce: *coerce,
            write_cost: *write_cost,
            keep: *keep,
        },
        (
            Instr::BinaryFast {
                op: op1,
                a,
                b,
                cost,
            },
            Instr::Binary(op2, c2),
        ) => PairCode::FastBinary {
            op1: *op1,
            a: *a,
            b: *b,
            c1: *cost,
            op2: *op2,
            c2: *c2,
        },
        (
            Instr::BinaryFast { op, a, b, cost },
            Instr::StoreLocal {
                slot,
                coerce,
                write_cost,
                keep,
            },
        ) => PairCode::FastStore {
            op: *op,
            a: *a,
            b: *b,
            c: *cost,
            slot: *slot,
            coerce: *coerce,
            write_cost: *write_cost,
            keep: *keep,
        },
        (Instr::ReadLocal(off), Instr::Binary(op, c)) => PairCode::ReadBinary {
            off: *off,
            op: *op,
            c: *c,
        },
        (Instr::ReadLocal(off), Instr::BinaryFast { op, a, b, cost }) => PairCode::ReadFast {
            off: *off,
            op: *op,
            a: *a,
            b: *b,
            c: *cost,
        },
        (Instr::BinaryFast { op, a, b, cost }, Instr::ReadLocal(off)) => PairCode::FastRead {
            op: *op,
            a: *a,
            b: *b,
            c: *cost,
            off: *off,
        },
        (Instr::LoopCount(loop_idx), Instr::ReadLocal(off)) => PairCode::CountRead {
            loop_idx: *loop_idx,
            off: *off,
        },
        _ => return None,
    };
    Some(pair)
}

/// One foldable input: a single-word frame-slot operand whose slot is
/// never written inside the segment body and never has its address
/// taken anywhere in the module.
struct Fold {
    off: u32,
    val: u64,
    float: bool,
}

/// Clone bodies are capped so a pathological segment cannot double the
/// code array.
const MAX_CLONE_LEN: u32 = 4096;

/// Applies `plan` to a compiled module, yielding bytecode with fusions
/// substituted in place, specialized clones appended, and the pairs and
/// guards they reference. Pure function of its inputs — building twice
/// yields identical code, so precompiled specialized modules are
/// shareable across runs.
pub(crate) fn build<'m>(bc: &BcModule<'m>, plan: &SpecPlan, cost: &CostModel) -> BcModule<'m> {
    let mut nbc = bc.clone();
    let mut guards: Vec<Option<SpecGuard>> = vec![None; bc.memos.len()];
    let mut cloned = 0u64;

    // Frame slots whose address is ever taken: a pointer may alias them,
    // so their reads can never be folded (conservative, module-wide).
    let addr_taken: std::collections::HashSet<u32> = bc
        .code
        .iter()
        .filter_map(|i| match i {
            Instr::AddrLocal(off) => Some(*off),
            _ => None,
        })
        .collect();

    for (id, m) in bc.memos.iter().enumerate() {
        let Some(dom) = plan
            .dominants
            .iter()
            .find(|d| d.table == m.table && d.slot == m.slot)
        else {
            continue;
        };
        if dom.key.len() != m.key_words as usize {
            continue; // stale plan for a different key layout
        }
        let (enter, exit) = bc.memo_spans[id];
        let base = enter + 1;
        if exit < base || exit - base >= MAX_CLONE_LEN {
            continue;
        }
        let folds = foldable_inputs(bc, m, &dom.key, (base, exit), &addr_taken);
        if folds.is_empty() {
            continue;
        }
        let target = nbc.code.len() as u32;
        for pc in base..=exit {
            let mut ins = bc.code[pc as usize].clone();
            remap_into_clone(&mut ins, base, exit, target);
            fold_instr(&mut ins, &folds, cost);
            nbc.code.push(ins);
        }
        // The cloned MemoExitNormal falls through here; resume the
        // generic code right after the original exit.
        nbc.code.push(Instr::Jump(exit + 1));
        guards[id] = Some(SpecGuard {
            enter_pc: enter,
            key: dom.key.clone(),
            folds: folds.iter().map(|f| (f.off, f.float)).collect(),
            target,
        });
        cloned += 1;
    }

    // Program-wide pair fusion, clones included. Replacing the first
    // half in place and keeping the second half keeps every jump target
    // valid: landing on the pair head executes both halves, landing on
    // the tail executes it alone.
    let hot: std::collections::HashSet<(u8, u8)> = plan.hot_pairs.iter().copied().collect();
    let mut pairs: Vec<PairCode> = Vec::new();
    let mut fused = 0u64;
    if !hot.is_empty() {
        let mut i = 0usize;
        while i + 1 < nbc.code.len() {
            let (a, b) = (&nbc.code[i], &nbc.code[i + 1]);
            let pair = if hot.contains(&(op_kind(a), op_kind(b))) {
                combine(a, b)
            } else {
                None
            };
            if let Some(pair) = pair {
                nbc.code[i] = Instr::Super2(pairs.len() as u32);
                pairs.push(pair);
                fused += 1;
                i += 2;
            } else {
                i += 1;
            }
        }
    }

    nbc.pairs = pairs;
    nbc.guards = guards;
    nbc.spec = Some(SpecStats {
        fused_sites: fused,
        cloned_segments: cloned,
        ..SpecStats::default()
    });
    nbc
}

/// The inputs of `m` that may be folded to immediates inside the clone,
/// with their baked values from the dominant key.
fn foldable_inputs(
    bc: &BcModule<'_>,
    m: &LMemo,
    key: &[u64],
    span: (u32, u32),
    addr_taken: &std::collections::HashSet<u32>,
) -> Vec<Fold> {
    let mut pos = 0usize;
    let mut folds = Vec::new();
    for op in &m.inputs {
        let words = op.words as usize;
        if let OpLoc::Local(off) = op.loc {
            if words == 1 && !addr_taken.contains(&off) && !written_in_span(bc, span, off) {
                folds.push(Fold {
                    off,
                    val: key[pos],
                    float: op.is_float,
                });
            }
        }
        pos += words;
    }
    folds
}

/// Whether the body span writes frame slot `off` directly (pointer
/// writes are excluded by the module-wide address-taken screen).
fn written_in_span(bc: &BcModule<'_>, (base, exit): (u32, u32), off: u32) -> bool {
    bc.code[base as usize..=exit as usize].iter().any(|i| {
        matches!(
            i,
            Instr::DeclStore { slot, .. }
                | Instr::StoreLocal { slot, .. }
                | Instr::IncDecLocal { slot, .. }
            if *slot == off
        )
    })
}

/// Rewrites absolute jump targets that point inside the cloned span to
/// the clone (`break`/`return` unwinds that leave the span keep their
/// original targets — exiting the clone into generic code is legal
/// because folded slots hold exactly their baked values).
fn remap_into_clone(ins: &mut Instr, base: u32, exit: u32, target: u32) {
    let map = |t: &mut u32| {
        if *t >= base && *t <= exit {
            *t = target + (*t - base);
        }
    };
    match ins {
        Instr::Jump(t) | Instr::JumpIfFalse(t) | Instr::JumpIfTrue(t) => map(t),
        Instr::JumpIfFalseCmp { target: t, .. } | Instr::JumpIfTrueCmp { target: t, .. } => map(t),
        Instr::ShortCircuit { end, .. }
        | Instr::LoopCond { end, .. }
        | Instr::LoopCondCmp { end, .. } => map(end),
        Instr::BranchIf { else_target, .. } | Instr::BranchIfCmp { else_target, .. } => {
            map(else_target)
        }
        Instr::MemoEnter { hit_target, .. } => map(hit_target),
        _ => {}
    }
}

/// Folds reads of baked inputs into immediates, preserving every cycle
/// charge: `ReadLocal` becomes [`Instr::PushKnown`] carrying the same
/// `var_access` charge, and fused-leaf substitutions keep the
/// compile-time pre-summed cost fields untouched.
fn fold_instr(ins: &mut Instr, folds: &[Fold], cost: &CostModel) {
    let find = |off: u32| folds.iter().find(|f| f.off == off);
    let subst = |a: &mut FastArg| {
        if let FastArg::Local(off) = a {
            if let Some(f) = find(*off) {
                if !f.float {
                    *a = FastArg::I(f.val as i64);
                }
            }
        }
    };
    match ins {
        Instr::ReadLocal(off) => {
            if let Some(f) = find(*off) {
                *ins = Instr::PushKnown {
                    w: f.val,
                    float: f.float,
                    cost: u32::try_from(cost.var_access).unwrap_or(u32::MAX),
                };
            }
        }
        Instr::BinaryFast { op, a, b, cost: c } => {
            subst(a);
            subst(b);
            if let (FastArg::I(x), FastArg::I(y)) = (&*a, &*b) {
                // Constant-fold only when the generic engine would
                // neither trap nor leave the integer domain.
                if let (Ok(Value::Int(r)), Ok(cc)) = (
                    binary_value(*op, Value::Int(*x), Value::Int(*y)),
                    u32::try_from(*c),
                ) {
                    *ins = Instr::PushKnown {
                        w: r as u64,
                        float: false,
                        cost: cc,
                    };
                }
            }
        }
        Instr::JumpIfFalseCmp { a, b, .. }
        | Instr::JumpIfTrueCmp { a, b, .. }
        | Instr::BranchIfCmp { a, b, .. }
        | Instr::LoopCondCmp { a, b, .. } => {
            subst(a);
            subst(b);
        }
        Instr::ReadIdx { idx, .. } => subst(idx),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::compile;
    use crate::cost::OptLevel;

    /// An empty plan is the identity pass: on every bundled workload's
    /// transformed module it yields the generic bytecode, with nothing
    /// fused, cloned, or guarded. That is what makes the specialized tier
    /// without a plan the bytecode engine by construction.
    #[test]
    fn empty_plan_builds_the_generic_bytecode() {
        for w in workloads::main_seven() {
            let program = minic::parse(&w.source).expect("workload parses");
            let config = compreuse::PipelineConfig {
                profile_input: (w.default_input)(0.02),
                ..compreuse::PipelineConfig::default()
            };
            let outcome = compreuse::run_pipeline(&program, &config).expect("pipeline runs");
            let module = crate::lower::lower(&outcome.transformed);
            for opt in [OptLevel::O0, OptLevel::O3] {
                let cost = CostModel::for_level(opt);
                let bc = compile(&module, &cost);
                assert!(!bc.memos.is_empty(), "{}: nothing memoized", w.name);
                let built = build(&bc, &SpecPlan::default(), &cost);
                assert!(built.code == bc.code, "{}: code changed", w.name);
                assert!(built.pairs.is_empty(), "{}: pairs fused", w.name);
                assert!(built.guards.iter().all(Option::is_none), "{}", w.name);
                assert_eq!(built.spec, Some(SpecStats::default()), "{}", w.name);
            }
        }
    }

    #[test]
    fn empty_trace_mines_nothing() {
        let t = DispatchTrace::new();
        assert_eq!(t.dispatches(), 0);
        assert!(t.top_pairs(16, 1).is_empty());
    }

    #[test]
    fn top_pairs_ranks_by_count_deterministically() {
        let mut t = DispatchTrace::new();
        // 5 -> 17 twice, 17 -> 36 once.
        t.step(5);
        t.step(17);
        t.step(36);
        t.step(5);
        t.step(17);
        let pairs = t.top_pairs(2, 1);
        assert_eq!(pairs[0], (5, 17));
        assert_eq!(pairs.len(), 2);
        assert!(t.top_pairs(16, 2) == vec![(5, 17)]);
    }
}
