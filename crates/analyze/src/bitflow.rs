//! Bit-level abstract interpretation of the SWAR lane datapath.
//!
//! PR 6's batched fixed-8 PG datapath packs eight 8-bit ROM addresses into
//! one `u64` and clamps them with the classic SIMD-within-a-register
//! borrow trick. Its correctness claims — no carry ever bleeds across a
//! packed lane boundary, batched ≡ scalar bit-exactness — used to rest on
//! randomized property tests. This module turns them into theorems.
//!
//! The interpreter evaluates the *same* generic dataflows the shipping
//! `u64` primitives instantiate (`coopmc_fixed::lane::flow`, via the
//! [`LaneWord`] trait), but over an abstract domain:
//!
//! - **known bits** — a tristate per bit (`ones`/`zeros` masks; a bit in
//!   neither is unknown), seeded from the proven wire ranges where inputs
//!   are bounded;
//! - **lane taint** — per bit, the set of *input lanes* the bit can depend
//!   on, so the output taint matrix is a dependence proof over all 2^128
//!   input pairs at once;
//! - **boundary-carry leaks** — every ripple `add`/`sub` records any carry
//!   into a lane-boundary bit (8, 16, …, 56, and out of bit 63) whose
//!   value is data-dependent; a leak-free run is the overflow-freedom
//!   theorem for that dataflow.
//!
//! The abstract pass proves **lane isolation** for all inputs, which
//! collapses the remaining semantic question — does lane `i` compute the
//! scalar `>=`/`min`/`max`/select? — from a 2^128 input space to eight
//! independent 2^16 per-lane spaces. Those are discharged by *exhaustive*
//! enumeration over the full 256×256 per-lane square (the splat-square
//! technique checks all eight lane positions of one primitive in a single
//! 65 536-case sweep), and `reduce_max8` closes with the 0-1 principle for
//! monotone comparator networks. Together: every batched-vs-scalar
//! bit-equality property test in the tree is now a corollary of a static
//! theorem; the tests remain as regression backstops.
//!
//! [`verify_lane_datapath`] runs the full proof stack and returns
//! structured [`Finding`]s for the `lane-datapath` section of
//! `coopmc-verify`; [`broken_lane_demo`] runs the same analyzers over two
//! deliberately seeded defects (a guard mask whose lane-3 byte slipped to
//! `0x7F`, bleeding a borrow into lane 4, and a clamp that selects through
//! an un-spread verdict) so CI can assert the gate catches them with
//! bit/lane provenance.

use coopmc_fixed::lane::{self, flow, LaneWord, Primitive, LANES, LO};
use coopmc_fixed::{round_ties_away, Fixed, QFormat, Rounding};
use coopmc_hw::batch::PgUnitConfig;
use coopmc_kernels::exp::TableExp;
use coopmc_kernels::fusion::LogFusion;
use coopmc_kernels::log::{TableLog, LOG_ZERO};
use coopmc_kernels::telemetry::PgTelemetry;

use crate::contracts::in_tree_configs;
use crate::netcheck::Severity;
use crate::verify::Finding;

/// A data-dependent carry crossing a packed lane boundary, recorded by the
/// ripple transfer functions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Leak {
    /// The boundary bit the carry enters (8, 16, …, 56, or 64 for a carry
    /// out of the word).
    pub bit: u32,
    /// The input lanes the carry's value depends on.
    pub taint: u8,
    /// Which arithmetic op produced it.
    pub op: &'static str,
}

/// Tristate value of one bit during a ripple pass.
#[derive(Debug, Clone, Copy)]
enum Tri {
    Zero,
    One,
    /// Unknown, depending on the given set of input lanes.
    Unk(u8),
}

/// One packed word in the abstract domain: known bits, per-bit lane taint
/// and the boundary-carry leaks accumulated on the path that produced it.
///
/// Invariants: `ones & zeros == 0`, and every known bit carries empty
/// taint (so the bitwise transfer functions can blindly union taints and
/// then clear them at known bits).
#[derive(Debug, Clone)]
pub struct AbsWord {
    ones: u64,
    zeros: u64,
    taint: [u8; 64],
    leaks: Vec<Leak>,
}

/// Render a lane-taint set like `{3,4}`.
fn lane_set(t: u8) -> String {
    let lanes: Vec<String> = (0..LANES as u32)
        .filter(|i| t & (1 << i) != 0)
        .map(|i| i.to_string())
        .collect();
    format!("{{{}}}", lanes.join(","))
}

impl AbsWord {
    /// A fully unknown packed word: every bit of lane `i` tainted by input
    /// lane `i`. The canonical input for lane-isolation proofs — it stands
    /// for *all* 2^64 concrete words at once.
    pub fn input_lanes() -> Self {
        let mut taint = [0u8; 64];
        for (bit, t) in taint.iter_mut().enumerate() {
            *t = 1 << (bit / 8);
        }
        Self {
            ones: 0,
            zeros: 0,
            taint,
            leaks: Vec::new(),
        }
    }

    /// An unknown scalar byte in lane 0 (lanes 1–7 known zero), tainted by
    /// lane 0 — the input shape of [`flow::splat8`].
    pub fn scalar_byte() -> Self {
        let mut w = Self::input_lanes();
        w.zeros = !0xFF;
        for t in w.taint.iter_mut().skip(8) {
            *t = 0;
        }
        w
    }

    /// An input word whose lane `i` is known to lie in `[lo[i], hi[i]]`
    /// (the PR 2 interval-analysis hand-off): the bits above the highest
    /// bit where `lo` and `hi` differ are known, the rest stay unknown
    /// with the lane's own taint.
    pub fn bounded_lanes(lo: [u8; LANES], hi: [u8; LANES]) -> Self {
        let mut w = Self::input_lanes();
        for (i, (&l, &h)) in lo.iter().zip(hi.iter()).enumerate() {
            debug_assert!(l <= h, "lane bound must be ordered");
            let diff = l ^ h;
            // Bits above the top difference are equal in lo and hi, hence
            // known; `diff == 0` means the whole lane is known.
            let known: u8 = if diff == 0 {
                0xFF
            } else {
                !((1u16 << (8 - diff.leading_zeros() as u16)) - 1) as u8
            };
            for b in 0..8 {
                if known & (1 << b) != 0 {
                    let bit = i * 8 + b;
                    if l & (1 << b) != 0 {
                        w.ones |= 1 << bit;
                    } else {
                        w.zeros |= 1 << bit;
                    }
                    w.taint[bit] = 0;
                }
            }
        }
        w
    }

    fn known(&self) -> u64 {
        self.ones | self.zeros
    }

    /// The tristate of bit `i`.
    fn bit(&self, i: usize) -> Tri {
        if self.ones >> i & 1 == 1 {
            Tri::One
        } else if self.zeros >> i & 1 == 1 {
            Tri::Zero
        } else {
            Tri::Unk(self.taint[i])
        }
    }

    /// Assemble a result from known masks and a blind per-bit taint union,
    /// clearing taint at known bits and concatenating operand leaks.
    fn assemble(
        ones: u64,
        zeros: u64,
        union_taint: impl Fn(usize) -> u8,
        leaks: Vec<Leak>,
    ) -> Self {
        debug_assert_eq!(ones & zeros, 0, "tristate invariant violated");
        let known = ones | zeros;
        let mut taint = [0u8; 64];
        for (bit, t) in taint.iter_mut().enumerate() {
            if known >> bit & 1 == 0 {
                *t = union_taint(bit);
            }
        }
        Self {
            ones,
            zeros,
            taint,
            leaks,
        }
    }

    fn merged_leaks(&self, other: &Self) -> Vec<Leak> {
        let mut leaks = self.leaks.clone();
        for l in &other.leaks {
            if !leaks.contains(l) {
                leaks.push(l.clone());
            }
        }
        leaks
    }

    /// Ripple `self + other + carry_in` bit by bit, tracking tristate
    /// carries and recording a [`Leak`] for every data-dependent carry
    /// into a lane-boundary bit. Subtraction routes through
    /// `a + !b + 1`, so borrows are carries here.
    fn ripple(&self, other: &Self, carry_in: Tri, op: &'static str) -> Self {
        let mut ones = 0u64;
        let mut zeros = 0u64;
        let mut taint = [0u8; 64];
        let mut leaks = self.merged_leaks(other);
        let mut carry = carry_in;
        for (i, slot) in taint.iter_mut().enumerate() {
            let a = self.bit(i);
            let b = other.bit(i);
            // Sum bit: known only when all three inputs are known.
            match (a, b, carry) {
                (Tri::Unk(ta), _, _) | (_, Tri::Unk(ta), _) | (_, _, Tri::Unk(ta)) => {
                    let t = ta
                        | unk_taint(a).unwrap_or(0)
                        | unk_taint(b).unwrap_or(0)
                        | unk_taint(carry).unwrap_or(0);
                    *slot = t;
                }
                _ => {
                    let v = tri_val(a) ^ tri_val(b) ^ tri_val(carry);
                    if v {
                        ones |= 1 << i;
                    } else {
                        zeros |= 1 << i;
                    }
                }
            }
            carry = carry_majority(a, b, carry);
            let boundary = (i + 1) % 8 == 0;
            if boundary {
                if let Tri::Unk(t) = carry {
                    let leak = Leak {
                        bit: (i + 1) as u32,
                        taint: t,
                        op,
                    };
                    if !leaks.contains(&leak) {
                        leaks.push(leak);
                    }
                }
            }
        }
        Self {
            ones,
            zeros,
            taint,
            leaks,
        }
    }

    /// All concrete byte values lane `i` can take, honoring its known
    /// bits. At most 256 values (eight unknown bits).
    fn lane_values(&self, lane_idx: usize) -> Vec<u8> {
        let sh = lane_idx * 8;
        let ones = (self.ones >> sh & 0xFF) as u8;
        let zeros = (self.zeros >> sh & 0xFF) as u8;
        let free: Vec<u8> = (0..8).filter(|b| (ones | zeros) & (1 << b) == 0).collect();
        (0..1u16 << free.len())
            .map(|sel| {
                let mut v = ones;
                for (j, b) in free.iter().enumerate() {
                    if sel >> j & 1 == 1 {
                        v |= 1 << b;
                    }
                }
                v
            })
            .collect()
    }

    /// Union of the taints of lane `i`'s unknown bits.
    fn lane_taint(&self, lane_idx: usize) -> u8 {
        self.taint[lane_idx * 8..lane_idx * 8 + 8]
            .iter()
            .fold(0, |acc, &t| acc | t)
    }

    /// Largest value lane `i` can take.
    fn lane_max(&self, lane_idx: usize) -> u8 {
        let sh = lane_idx * 8;
        let ones = (self.ones >> sh & 0xFF) as u8;
        let zeros = (self.zeros >> sh & 0xFF) as u8;
        ones | !zeros & !ones
    }

    /// Join a set of concrete 64-bit values into known bits (bits where
    /// every value agrees), tainting the disagreeing bits with `taint`.
    fn join_concrete(values: &[u64], taint_bits: u8, leaks: Vec<Leak>) -> Self {
        let mut ones = u64::MAX;
        let mut zeros = u64::MAX;
        for &v in values {
            ones &= v;
            zeros &= !v;
        }
        Self::assemble(ones, zeros, |_| taint_bits, leaks)
    }

    /// The boundary-carry leaks accumulated on the dataflow that produced
    /// this word.
    pub fn leaks(&self) -> &[Leak] {
        &self.leaks
    }

    /// Input lanes that bits of output lane `i` beyond its own lane depend
    /// on (`0` means lane `i` is isolated).
    pub fn cross_taint(&self, lane_idx: usize) -> u8 {
        self.lane_taint(lane_idx) & !(1u8 << lane_idx)
    }

    /// True if every bit outside lane 0 is known zero (the shape of a
    /// reduction result).
    pub fn confined_to_lane0(&self) -> bool {
        (self.zeros | 0xFF) == u64::MAX
    }
}

fn unk_taint(t: Tri) -> Option<u8> {
    match t {
        Tri::Unk(x) => Some(x),
        _ => None,
    }
}

fn tri_val(t: Tri) -> bool {
    matches!(t, Tri::One)
}

/// Tristate majority — the carry-out of a full adder. Known when two
/// inputs are known and equal (they force the majority) or when exactly
/// one input is unknown but the two known ones disagree (the carry
/// propagates the unknown input).
fn carry_majority(a: Tri, b: Tri, c: Tri) -> Tri {
    let ones = [a, b, c].iter().filter(|t| matches!(t, Tri::One)).count();
    let zeros = [a, b, c].iter().filter(|t| matches!(t, Tri::Zero)).count();
    if ones >= 2 {
        Tri::One
    } else if zeros >= 2 {
        Tri::Zero
    } else if ones == 1 && zeros == 1 {
        // Propagate: the remaining (unknown) input is the carry.
        [a, b, c]
            .into_iter()
            .find(|t| matches!(t, Tri::Unk(_)))
            .unwrap_or(Tri::Zero)
    } else {
        let t = unk_taint(a).unwrap_or(0) | unk_taint(b).unwrap_or(0) | unk_taint(c).unwrap_or(0);
        Tri::Unk(t)
    }
}

impl LaneWord for AbsWord {
    fn lit(v: u64) -> Self {
        Self {
            ones: v,
            zeros: !v,
            taint: [0u8; 64],
            leaks: Vec::new(),
        }
    }

    fn band(&self, other: &Self) -> Self {
        Self::assemble(
            self.ones & other.ones,
            self.zeros | other.zeros,
            |i| self.taint[i] | other.taint[i],
            self.merged_leaks(other),
        )
    }

    fn bor(&self, other: &Self) -> Self {
        Self::assemble(
            self.ones | other.ones,
            self.zeros & other.zeros,
            |i| self.taint[i] | other.taint[i],
            self.merged_leaks(other),
        )
    }

    fn bxor(&self, other: &Self) -> Self {
        let known = self.known() & other.known();
        let v = self.ones ^ other.ones;
        Self::assemble(
            known & v,
            known & !v,
            |i| self.taint[i] | other.taint[i],
            self.merged_leaks(other),
        )
    }

    fn bnot(&self) -> Self {
        Self {
            ones: self.zeros,
            zeros: self.ones,
            taint: self.taint,
            leaks: self.leaks.clone(),
        }
    }

    fn shl_by(&self, n: u32) -> Self {
        let mut taint = [0u8; 64];
        taint[n as usize..].copy_from_slice(&self.taint[..64 - n as usize]);
        Self {
            ones: self.ones << n,
            // Vacated low bits are known zero.
            zeros: self.zeros << n | ((1u64 << n) - 1),
            taint,
            leaks: self.leaks.clone(),
        }
    }

    fn shr_by(&self, n: u32) -> Self {
        let mut taint = [0u8; 64];
        taint[..64 - n as usize].copy_from_slice(&self.taint[n as usize..]);
        let vacated = if n == 0 { 0 } else { !(u64::MAX >> n) };
        Self {
            ones: self.ones >> n,
            zeros: self.zeros >> n | vacated,
            taint,
            leaks: self.leaks.clone(),
        }
    }

    fn add_wrap(&self, other: &Self) -> Self {
        self.ripple(other, Tri::Zero, "add")
    }

    fn sub_wrap(&self, other: &Self) -> Self {
        // a - b == a + !b + 1; borrows surface as carries.
        self.ripple(&other.bnot(), Tri::One, "sub")
    }

    /// Constant multiplication, the one transfer where a naive lowering
    /// would be unsound *for the proof*: rewriting `t * 0xFF` as
    /// `(t << 8) - t` makes the abstract carry chain cross every lane
    /// boundary even though the borrow semantically cancels the shifted-in
    /// byte. Instead, the two shapes the lane dataflows actually use are
    /// evaluated exactly by enumerating the (≤ 256) consistent operand
    /// values per lane:
    ///
    /// - **broadcast**: operand confined to lane 0 (`splat8`) — the full
    ///   product is enumerated and joined;
    /// - **per-lane scale**: every lane's maximum times `c` fits a byte
    ///   (`mask_spread`'s `× 0xFF` on 0/1 verdicts) — partial products
    ///   cannot overlap, so each result lane is its own product join.
    ///
    /// Anything else falls back to a fully unknown word tainted by every
    /// lane the operand depends on — sound, but it will (rightly) fail an
    /// isolation theorem rather than fake one.
    fn mul_const(&self, c: u64) -> Self {
        if self.known() == u64::MAX {
            let mut w = Self::lit(self.ones.wrapping_mul(c));
            w.leaks = self.leaks.clone();
            return w;
        }
        if self.confined_to_lane0() {
            let products: Vec<u64> = self
                .lane_values(0)
                .into_iter()
                .map(|v| u64::from(v).wrapping_mul(c))
                .collect();
            return Self::join_concrete(&products, self.lane_taint(0), self.leaks.clone());
        }
        let scale_safe = c <= 0xFF && (0..LANES).all(|i| u64::from(self.lane_max(i)) * c <= 0xFF);
        if scale_safe {
            let mut ones = 0u64;
            let mut zeros = 0u64;
            let mut taint = [0u8; 64];
            for i in 0..LANES {
                let mut lane_ones = 0xFFu8;
                let mut lane_zeros = 0xFFu8;
                for v in self.lane_values(i) {
                    let p = (u64::from(v) * c) as u8;
                    lane_ones &= p;
                    lane_zeros &= !p;
                }
                ones |= u64::from(lane_ones) << (i * 8);
                zeros |= u64::from(lane_zeros) << (i * 8);
                let t = self.lane_taint(i);
                for b in 0..8 {
                    if (lane_ones | lane_zeros) & (1 << b) == 0 {
                        taint[i * 8 + b] = t;
                    }
                }
            }
            return Self {
                ones,
                zeros,
                taint,
                leaks: self.leaks.clone(),
            };
        }
        // Coarse fallback: correct, never proves anything.
        let all = (0..64).fold(0u8, |acc, i| acc | self.taint[i])
            | (0..LANES)
                .filter(|&i| self.known() >> (i * 8) & 0xFF != 0xFF)
                .fold(0u8, |acc, i| acc | 1 << i);
        Self::assemble(0, 0, |_| all, self.leaks.clone())
    }
}

// ---------------------------------------------------------------------------
// Theorem drivers
// ---------------------------------------------------------------------------

/// Append isolation/overflow findings for one primitive's abstract output.
/// `expected(i)` is the set of input lanes output lane `i` is *allowed* to
/// depend on.
fn check_abstract(
    findings: &mut Vec<Finding>,
    prim: &str,
    out: &AbsWord,
    expected: impl Fn(usize) -> u8,
) {
    let mut bad_bits: Vec<String> = Vec::new();
    for bit in 0..64 {
        let lane_idx = bit / 8;
        let illegal = out.taint[bit] & !expected(lane_idx);
        if illegal != 0 {
            bad_bits.push(format!(
                "bit {bit} (lane {lane_idx}) additionally depends on input lanes {}",
                lane_set(illegal)
            ));
        }
    }
    if !bad_bits.is_empty() {
        let affected = bad_bits.len();
        bad_bits.truncate(8);
        findings.push(Finding {
            severity: Severity::Error,
            check: "lane-isolation".into(),
            message: format!(
                "{prim}: output bits depend on foreign input lanes ({affected} bits affected)"
            ),
            provenance: bad_bits,
            bound: None,
            limit: None,
        });
    }
    if !out.leaks().is_empty() {
        let provenance: Vec<String> = out
            .leaks()
            .iter()
            .map(|l| {
                format!(
                    "{}: carry into bit {} (lane {} boundary) is data-dependent on lanes {}",
                    l.op,
                    l.bit,
                    l.bit / 8,
                    lane_set(l.taint)
                )
            })
            .collect();
        findings.push(Finding {
            severity: Severity::Error,
            check: "lane-overflow".into(),
            message: format!(
                "{prim}: {} data-dependent carry/borrow(s) cross a lane boundary",
                out.leaks().len()
            ),
            provenance,
            bound: None,
            limit: None,
        });
    }
}

/// The lane-isolation + overflow-freedom theorems for every primitive, over
/// fully unknown inputs (hence for all concrete inputs). Returns (checks,
/// findings, primitives covered by an abstract theorem).
fn abstract_theorems(findings: &mut Vec<Finding>) -> usize {
    let x = AbsWord::input_lanes();
    let y = AbsWord::input_lanes();
    let own = |i: usize| 1u8 << i;
    let mut checks = 0;

    // splat8: every output lane may depend only on the scalar (lane 0).
    let s = flow::splat8(&AbsWord::scalar_byte());
    check_abstract(findings, "splat8", &s, |_| 1 << 0);
    checks += 2;

    // lane_ge / lane_select / lane_min / lane_max / address_clamp: output
    // lane i depends only on input lanes i of either operand.
    let ge = flow::lane_ge(&x, &y);
    check_abstract(findings, "lane_ge", &ge, own);
    checks += 2;

    let mask = flow::lane_ge(&x, &y);
    let sel = flow::lane_select(&mask, &x, &y);
    check_abstract(findings, "lane_select", &sel, own);
    checks += 2;

    check_abstract(findings, "lane_min", &flow::lane_min(&x, &y), own);
    check_abstract(findings, "lane_max", &flow::lane_max(&x, &y), own);
    checks += 4;

    let clamp = flow::address_clamp(&x, &flow::splat8(&AbsWord::scalar_byte()));
    check_abstract(findings, "address_clamp", &clamp, |i| 1 << i | 1 << 0);
    checks += 2;

    // reduce_max8 folds all lanes into lane 0 by design; its theorems are
    // confinement (only byte 0 survives) and leak-freedom of the internal
    // compare/selects even on the shifted intermediate words.
    let red = flow::reduce_max8(&x);
    checks += 2;
    if !red.confined_to_lane0() {
        findings.push(Finding {
            severity: Severity::Error,
            check: "lane-isolation".into(),
            message: "reduce_max8: result not confined to lane 0".into(),
            provenance: vec![format!(
                "bits 8..64 must be known zero; zeros mask = {:#018x}",
                red.zeros
            )],
            bound: None,
            limit: None,
        });
    }
    check_abstract(findings, "reduce_max8", &red, |_| 0xFF);
    checks
}

/// Scalar reference for the per-lane semantics of each primitive.
fn scalar_ge(a: u8, b: u8) -> u8 {
    if a >= b {
        0xFF
    } else {
        0
    }
}

/// The per-lane scalar-equivalence theorems, discharged by exhaustive
/// enumeration of the full 256×256 per-lane square. Lane isolation (proven
/// above for all inputs) reduces correctness of lane `i` on arbitrary
/// words to correctness of lane `i` on *any* word holding the pair, so one
/// splat-square sweep checks all eight lane positions at once.
fn equivalence_theorems(findings: &mut Vec<Finding>) -> usize {
    let mut checks = 0;

    // splat8: all lanes equal the scalar. 256 cases.
    checks += 1;
    for v in 0..=255u8 {
        if lane::unpack8(lane::splat8(v)) != [v; LANES] {
            findings.push(equiv_error("splat8", v, 0, "broadcast mismatch"));
            break;
        }
    }

    // pack8/unpack8 round-trip: positional by construction, checked over
    // every single-lane value and a mixed word. 2048 + 1 cases.
    checks += 1;
    'pack: for i in 0..LANES {
        for v in 0..=255u8 {
            let mut lanes = [0u8; LANES];
            lanes[i] = v;
            if lane::unpack8(lane::pack8(lanes)) != lanes {
                findings.push(equiv_error(
                    "pack8/unpack8",
                    v,
                    i as u8,
                    "round-trip mismatch",
                ));
                break 'pack;
            }
        }
    }

    // lane_ge / lane_min / lane_max / address_clamp + mask wellformedness
    // over the full 65 536-pair square.
    checks += 5;
    'square: for a in 0..=255u8 {
        for b in 0..=255u8 {
            let x = lane::splat8(a);
            let y = lane::splat8(b);
            let ge = lane::lane_ge(x, y);
            for (i, m) in lane::unpack8(ge).into_iter().enumerate() {
                if m != 0 && m != 0xFF {
                    findings.push(mask_error("lane_ge", a, b, i, m));
                    break 'square;
                }
                if m != scalar_ge(a, b) {
                    findings.push(equiv_error("lane_ge", a, b, "compare mismatch"));
                    break 'square;
                }
            }
            if lane::unpack8(lane::lane_min(x, y)) != [a.min(b); LANES] {
                findings.push(equiv_error("lane_min", a, b, "min mismatch"));
                break 'square;
            }
            if lane::unpack8(lane::lane_max(x, y)) != [a.max(b); LANES] {
                findings.push(equiv_error("lane_max", a, b, "max mismatch"));
                break 'square;
            }
            // The TableExp address clamp is per-lane min against the limit.
            let clamped = flow::address_clamp(&x, &y);
            if lane::unpack8(clamped) != [a.min(b); LANES] {
                findings.push(equiv_error("address_clamp", a, b, "clamp mismatch"));
                break 'square;
            }
        }
    }

    // lane_select under every proper mask value: 2 × 65 536 cases.
    checks += 1;
    'select: for m in [0u8, 0xFF] {
        let mask = lane::splat8(m);
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                let want = if m == 0xFF { a } else { b };
                let got = lane::lane_select(mask, lane::splat8(a), lane::splat8(b));
                if lane::unpack8(got) != [want; LANES] {
                    findings.push(equiv_error("lane_select", a, b, "select mismatch"));
                    break 'select;
                }
            }
        }
    }

    // reduce_max8: lane_max is correct per lane (above), and the shift/max
    // ladder is a monotone comparator network, so by the 0-1 principle it
    // computes the maximum iff it does so on every 0-1 lane pattern (256
    // cases). Single-hot and uniform sweeps back the principle up.
    checks += 1;
    for pat in 0..=255u8 {
        let lanes: [u8; LANES] = std::array::from_fn(|i| (pat >> i) & 1);
        let want = if pat == 0 { 0 } else { 1 };
        if lane::reduce_max8(lane::pack8(lanes)) != want {
            findings.push(equiv_error("reduce_max8", pat, 0, "0-1 pattern mismatch"));
            break;
        }
    }
    checks += 1;
    'hot: for i in 0..LANES {
        for v in 0..=255u8 {
            let mut lanes = [0u8; LANES];
            lanes[i] = v;
            if lane::reduce_max8(lane::pack8(lanes)) != v {
                findings.push(equiv_error(
                    "reduce_max8",
                    v,
                    i as u8,
                    "single-hot mismatch",
                ));
                break 'hot;
            }
        }
    }

    checks
}

fn equiv_error(prim: &str, a: u8, b: u8, what: &str) -> Finding {
    Finding {
        severity: Severity::Error,
        check: "lane-scalar-equivalence".into(),
        message: format!("{prim}: {what} at per-lane inputs a={a:#04x}, b={b:#04x}"),
        provenance: vec![format!(
            "counterexample word pair: x=splat8({a:#04x}), y=splat8({b:#04x})"
        )],
        bound: None,
        limit: None,
    }
}

fn mask_error(prim: &str, a: u8, b: u8, lane_idx: usize, value: u8) -> Finding {
    Finding {
        severity: Severity::Error,
        check: "lane-mask".into(),
        message: format!(
            "{prim}: lane {lane_idx} emits non-mask byte {value:#04x} (must be 0x00 or 0xFF) \
             at per-lane inputs a={a:#04x}, b={b:#04x}"
        ),
        provenance: vec![format!(
            "bits {}..{} of a dependent select would mix both operands",
            lane_idx * 8,
            lane_idx * 8 + 8
        )],
        bound: None,
        limit: None,
    }
}

/// Overflow-freedom against the proven wire ranges, per in-tree config:
/// every packed-path config (`size_lut ≤ 255`) gets its address-clamp
/// dataflow re-proven with the *concrete* broadcast limit and byte
/// addresses bounded to the interval analysis's `[0, 255]` saturation
/// range, plus an exhaustive sweep showing no clamped address exceeds the
/// flush code.
fn config_theorems(findings: &mut Vec<Finding>) -> usize {
    let mut checks = 0;
    for cfg in in_tree_configs() {
        checks += 1;
        if cfg.size_lut > u8::MAX as usize {
            // The distance read takes its scalar loop; the packed
            // theorems do not apply and nothing packed runs.
            continue;
        }
        let flush = cfg.size_lut as u8;
        let word = AbsWord::bounded_lanes([0; LANES], [u8::MAX; LANES]);
        let limit = AbsWord::lit(lane::splat8(flush));
        let out = flow::address_clamp(&word, &limit);
        let mut local = Vec::new();
        check_abstract(&mut local, "address_clamp", &out, |i| 1 << i);
        for f in &mut local {
            f.message = format!("[{}] {}", cfg.name, f.message);
        }
        let had_abstract = !local.is_empty();
        findings.append(&mut local);
        if had_abstract {
            continue;
        }
        // Clamp bound: every address folds into [0, flush].
        let worst = (0..=255u8)
            .map(|a| lane::unpack8(flow::address_clamp(&lane::splat8(a), &limit_word(flush)))[0])
            .max()
            .unwrap_or(0);
        if worst > flush {
            findings.push(Finding {
                severity: Severity::Error,
                check: "lane-overflow".into(),
                message: format!(
                    "[{}] clamped ROM address {worst} exceeds the flush code {flush}",
                    cfg.name
                ),
                provenance: vec![],
                bound: Some(f64::from(worst)),
                limit: Some(f64::from(flush)),
            });
        }
    }
    checks
}

fn limit_word(flush: u8) -> u64 {
    lane::splat8(flush)
}

/// Exhaustive equivalence of the fused scalar quantizers the batched
/// kernels apply element-wise: `requantize_nearest` and the bus word of
/// `quantize_nearest_raw` against the two-step `Fixed` round-trip, and
/// `round_ties_away` against an independent
/// half-away reference — over dense half-ulp grids plus the edge cases
/// (NaN, infinities, saturation band).
fn quantizer_theorems(findings: &mut Vec<Finding>) -> usize {
    let mut checks = 0;

    checks += 1;
    let fmts = [
        QFormat::baseline32(),
        QFormat::new(5, 10).expect("valid format"),
    ];
    'requant: for fmt in fmts {
        let res = fmt.resolution();
        let max = fmt.max_raw() as f64;
        let specials = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            1e300,
            -1e300,
        ];
        let grid = (-65_536i64..=65_536).map(|k| k as f64 * res / 2.0);
        let sat_band = (-512i64..=512).map(|k| (max + k as f64) * res);
        let neg_band = (-512i64..=512).map(|k| (k as f64 - max) * res);
        for x in grid.chain(sat_band).chain(neg_band).chain(specials) {
            let fused = fmt.requantize_nearest(x);
            let fixed = Fixed::from_f64(x, fmt, Rounding::Nearest);
            let two_step = fixed.to_f64();
            // The bus word the batched kernels quantize to is the same
            // Fixed word.
            let word = fmt.quantize_nearest_raw(x);
            if fused.to_bits() != two_step.to_bits() || word != fixed.raw() {
                findings.push(Finding {
                    severity: Severity::Error,
                    check: "requantize-equivalence".into(),
                    message: format!(
                        "requantize_nearest({x:e}) = {fused:e} (word {word}) but the Fixed \
                         round-trip gives {two_step:e} (word {}) ({fmt:?})",
                        fixed.raw()
                    ),
                    provenance: vec![format!(
                        "bit patterns: fused {:#018x}, round-trip {:#018x}",
                        fused.to_bits(),
                        two_step.to_bits()
                    )],
                    bound: None,
                    limit: None,
                });
                break 'requant;
            }
        }
    }

    checks += 1;
    let half_away = |x: f64| -> f64 {
        if x.is_nan() {
            return 0.0;
        }
        if x >= 0.0 {
            (x + 0.5).floor()
        } else {
            -((-x + 0.5).floor())
        }
    };
    for k in -131_072i64..=131_072 {
        // Half-integers hit every tie; the ±0.25 offsets hit both rounding
        // directions. All values are exact in f64, so the reference's
        // `+ 0.5` is exact too.
        for x in [k as f64 / 2.0, k as f64 / 2.0 + 0.25, k as f64 / 2.0 - 0.25] {
            let got = round_ties_away(x);
            let want = half_away(x);
            // Value equality: the reference produces -0.0 for negative
            // inputs rounding to zero, which is not part of the contract.
            if got != want {
                findings.push(Finding {
                    severity: Severity::Error,
                    check: "round-ties-equivalence".into(),
                    message: format!(
                        "round_ties_away({x}) = {got} but half-away-from-zero gives {want}"
                    ),
                    provenance: vec![],
                    bound: Some(got),
                    limit: Some(want),
                });
                return checks;
            }
        }
    }
    checks
}

/// Row isolation of the batched PG pass: `evaluate_log_score_rows_into`
/// on the CLI default datapath runs DyNorm row by row on bus words, then
/// one lane-packed distance read across row boundaries. The check is a
/// bounded-exhaustive differential — every row of a batch must be
/// bit-identical to a standalone `evaluate_log_scores_into` of that row,
/// across a grid of score patterns and row widths. This is deliberately
/// labeled a check, not a bit-level theorem.
fn dynorm_row_checks(findings: &mut Vec<Finding>) -> usize {
    let fusion = LogFusion::new(
        TableLog::new(64, 8),
        TableExp::new(64, 8),
        QFormat::baseline32(),
        4,
    );
    let patterns: [&[f64]; 5] = [
        &[-5.0, -2.5, -9.75, -2.5],
        &[0.0, -1024.0, -0.5, -3.0],
        &[64.0, 0.25, -7.0, -1e6],
        &[-1.0, -1.0, -1.0, -1.0],
        &[LOG_ZERO, -15.99, -16.0, f64::NAN],
    ];
    let (mut words, mut probs, mut ops) = (Vec::new(), Vec::new(), Vec::new());
    for width in [2usize, 4] {
        for rows in 1..=patterns.len() {
            let batch: Vec<f64> = patterns[..rows]
                .iter()
                .flat_map(|p| p[..width].iter().copied())
                .collect();
            let mut telemetry = PgTelemetry::new();
            fusion.evaluate_log_score_rows_into(
                &batch,
                width,
                &mut words,
                &mut probs,
                &mut ops,
                &mut telemetry,
                None,
            );
            for (row, pat) in patterns[..rows].iter().enumerate() {
                let mut alone = Vec::new();
                let mut telemetry = PgTelemetry::new();
                let _ = fusion.evaluate_log_scores_into(
                    &pat[..width],
                    &mut words,
                    &mut alone,
                    &mut telemetry,
                    None,
                );
                let got = &probs[row * width..(row + 1) * width];
                if got
                    .iter()
                    .zip(&alone)
                    .any(|(g, w)| g.to_bits() != w.to_bits())
                {
                    findings.push(Finding {
                        severity: Severity::Error,
                        check: "row-isolation".into(),
                        message: format!(
                            "evaluate_log_score_rows_into: row {row} of a {rows}×{width} batch \
                             diverges from a standalone evaluate_log_scores_into of the same row"
                        ),
                        provenance: vec![
                            format!("batch row: {got:?}"),
                            format!("alone: {alone:?}"),
                        ],
                        bound: None,
                        limit: None,
                    });
                    return 1;
                }
            }
        }
    }
    1
}

/// The primitives the lane theorems cover. Kernel primitive declarations
/// (e.g. [`TableExp::BATCH_LANE_PRIMITIVES`]) are checked against this
/// set, so pulling a new primitive into a batched kernel fails the gate
/// until the analyzer proves it too.
pub fn proved_primitives() -> &'static [Primitive] {
    &Primitive::ALL
}

/// Coverage: every primitive the batched exp address path uses must have a
/// lane theorem.
fn coverage_checks(findings: &mut Vec<Finding>) -> usize {
    let missing: Vec<&str> = TableExp::BATCH_LANE_PRIMITIVES
        .iter()
        .filter(|p| !proved_primitives().contains(p))
        .map(|p| p.name())
        .collect();
    if !missing.is_empty() {
        findings.push(Finding {
            severity: Severity::Error,
            check: "lane-coverage".into(),
            message: format!(
                "the batched TableExp read uses primitives without lane theorems: {}",
                missing.join(", ")
            ),
            provenance: vec![],
            bound: None,
            limit: None,
        });
    }
    1
}

/// The packed width the model claims must be the width the theorems are
/// about — a mismatch silently invalidates every lane statement, so it is
/// a hard error, not a warning.
fn width_checks(findings: &mut Vec<Finding>) -> usize {
    if PgUnitConfig::PACKED_LANES != LANES {
        findings.push(Finding {
            severity: Severity::Error,
            check: "lane-width-mismatch".into(),
            message: format!(
                "coopmc_hw models {} packed ROM-address lanes per PG unit but the \
                 software datapath packs {} — the lane theorems do not transfer",
                PgUnitConfig::PACKED_LANES,
                LANES
            ),
            provenance: vec![],
            bound: Some(PgUnitConfig::PACKED_LANES as f64),
            limit: Some(LANES as f64),
        });
    }
    1
}

/// Run the full lane-datapath proof stack: width registration, abstract
/// isolation/overflow theorems, exhaustive scalar-equivalence theorems,
/// per-config overflow-freedom, fused-quantizer equivalence, DyNorm row
/// isolation and primitive coverage. Returns `(checks, findings)` for the
/// `lane-datapath` section of the verify report.
pub fn verify_lane_datapath() -> (usize, Vec<Finding>) {
    let mut findings = Vec::new();
    let mut checks = 0;
    checks += width_checks(&mut findings);
    checks += abstract_theorems(&mut findings);
    checks += equivalence_theorems(&mut findings);
    checks += config_theorems(&mut findings);
    checks += quantizer_theorems(&mut findings);
    checks += dynorm_row_checks(&mut findings);
    checks += coverage_checks(&mut findings);
    (checks, findings)
}

// ---------------------------------------------------------------------------
// Seeded-defect demos
// ---------------------------------------------------------------------------

/// The defective guard mask of the `--demo-broken` seed: lane 3's guard
/// byte slipped one bit (`0x7F` where `0x80` belongs), so lane 3's minuend
/// loses the borrow stop and a data-dependent borrow ripples into lane 4.
pub const BROKEN_HI: u64 = 0x8080_8080_7F80_8080;

/// The clamp defect: the raw `lane_ge` verdict (`0x01` per true lane,
/// before [`flow::mask_spread`]) used directly as the select mask, so only
/// bit 0 of each lane selects the intended operand.
fn broken_clamp<W: LaneWord>(word: &W, limit: &W) -> W {
    let verdict = flow::lane_ge(word, limit).shr_by(7).band(&W::lit(LO));
    flow::lane_select(&verdict, limit, word)
}

/// Run the lane analyzers over the two seeded defects. Both must be caught
/// with bit/lane provenance: the broken guard mask by the abstract
/// interpreter (boundary leak + cross-lane taint, plus a concrete
/// counterexample), the un-spread clamp mask by the mask-wellformedness and
/// scalar-equivalence sweeps.
pub fn broken_lane_demo() -> (usize, Vec<Finding>) {
    let mut findings = Vec::new();
    let mut checks = 0;

    // Defect 1: lane_ge under the slipped guard mask.
    checks += 2;
    let x = AbsWord::input_lanes();
    let y = AbsWord::input_lanes();
    let ge = flow::lane_ge_masked(&x, &y, BROKEN_HI);
    let before = findings.len();
    check_abstract(
        &mut findings,
        &format!("lane_ge[hi={BROKEN_HI:#018x}]"),
        &ge,
        |i| 1 << i,
    );
    // Attach a concrete witness to the abstract verdict.
    if let Some(witness) = broken_ge_witness() {
        for f in &mut findings[before..] {
            f.provenance.push(witness.clone());
        }
    }

    // Defect 2: the un-spread select mask. Report the first non-mask
    // byte and the first scalar-equivalence counterexample it causes.
    checks += 2;
    let mut mask_found = false;
    let mut equiv_found = false;
    'outer: for a in 0..=255u8 {
        for b in 0..=255u8 {
            let word = lane::splat8(a);
            let limit = lane::splat8(b);
            let verdict = (lane::lane_ge(word, limit) >> 7) & LO;
            let m = lane::unpack8(verdict)[0];
            if !mask_found && m != 0 && m != 0xFF {
                findings.push(mask_error("broken_clamp", a, b, 0, m));
                mask_found = true;
            }
            let got = lane::unpack8(broken_clamp(&word, &limit))[0];
            let want = a.min(b);
            if !equiv_found && got != want {
                let mut f = equiv_error("broken_clamp", a, b, "clamp mismatch");
                f.message = format!(
                    "broken_clamp: lane 0 clamps {a:#04x} against limit {b:#04x} to \
                     {got:#04x}, scalar min gives {want:#04x}"
                );
                f.bound = Some(f64::from(got));
                f.limit = Some(f64::from(want));
                findings.push(f);
                equiv_found = true;
            }
            if mask_found && equiv_found {
                break 'outer;
            }
        }
    }

    (checks, findings)
}

/// Search for a concrete input pair where the broken guard mask flips a
/// *neighbor* lane's verdict: two words identical except in lane 3 whose
/// broken `lane_ge` outputs differ in lane 4.
fn broken_ge_witness() -> Option<String> {
    let base_x: [u8; LANES] = [9, 9, 9, 0, 0, 9, 9, 9];
    let base_y: [u8; LANES] = [3, 3, 3, 0, 0, 3, 3, 3];
    let reference = {
        let x = lane::pack8(base_x);
        let y = lane::pack8(base_y);
        lane::unpack8(flow::lane_ge_masked(&x, &y, BROKEN_HI))[4]
    };
    for a in 0..=255u8 {
        for b in 0..=255u8 {
            let mut lx = base_x;
            let mut ly = base_y;
            lx[3] = a;
            ly[3] = b;
            let out = flow::lane_ge_masked(&lane::pack8(lx), &lane::pack8(ly), BROKEN_HI);
            let got = lane::unpack8(out)[4];
            if got != reference {
                return Some(format!(
                    "witness: changing only lane 3 (x3 {:#04x}->{a:#04x}, y3 {:#04x}->{b:#04x}) \
                     flips lane 4's verdict {reference:#04x}->{got:#04x}",
                    base_x[3], base_y[3]
                ));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use coopmc_fixed::lane::HI;

    /// The abstract interpreter must agree with concrete u64 arithmetic on
    /// every operation: evaluate both over a batch of structured words and
    /// check the concrete result is always consistent with the known bits.
    #[test]
    fn abstract_ops_are_sound_on_concrete_words() {
        let words = [
            0u64,
            u64::MAX,
            HI,
            LO,
            0x0123_4567_89AB_CDEF,
            lane::splat8(0x80),
            lane::splat8(0x7F),
        ];
        for &a in &words {
            for &b in &words {
                let aa = AbsWord::lit(a);
                let ab = AbsWord::lit(b);
                for (got, want) in [
                    (aa.band(&ab), a & b),
                    (aa.bor(&ab), a | b),
                    (aa.bxor(&ab), a ^ b),
                    (aa.add_wrap(&ab), a.wrapping_add(b)),
                    (aa.sub_wrap(&ab), a.wrapping_sub(b)),
                    (aa.shr_by(7), a >> 7),
                    (aa.shl_by(3), a << 3),
                    (aa.mul_const(0xFF), a.wrapping_mul(0xFF)),
                ] {
                    assert_eq!(got.ones, want, "ones drift for {a:#x} op {b:#x}");
                    assert_eq!(got.zeros, !want, "zeros drift for {a:#x} op {b:#x}");
                }
            }
        }
    }

    /// Partial knowledge must stay sound: every concrete value consistent
    /// with the inputs is consistent with the abstract output.
    #[test]
    fn partial_knowledge_is_sound_for_lane_ge() {
        let x = AbsWord::bounded_lanes([0; LANES], [63; LANES]);
        let y = AbsWord::bounded_lanes([0; LANES], [63; LANES]);
        let out = flow::lane_ge(&x, &y);
        assert!(out.leaks().is_empty());
        for a in (0..=63u8).step_by(9) {
            for b in (0..=63u8).step_by(7) {
                let concrete = lane::lane_ge(lane::splat8(a), lane::splat8(b));
                assert_eq!(out.ones & !concrete, 0, "known-one bit wrong");
                assert_eq!(out.zeros & concrete, 0, "known-zero bit wrong");
            }
        }
    }

    #[test]
    fn clean_primitives_prove_isolated() {
        let (checks, findings) = verify_lane_datapath();
        assert!(checks > 80, "expected a substantive sweep, got {checks}");
        assert!(
            findings.is_empty(),
            "clean datapath must verify: {findings:#?}"
        );
    }

    #[test]
    fn broken_guard_mask_is_caught_with_lane_provenance() {
        let (_, findings) = broken_lane_demo();
        let iso = findings
            .iter()
            .find(|f| f.check == "lane-isolation")
            .expect("isolation finding");
        assert!(iso.message.contains("lane_ge"));
        assert!(
            iso.provenance.iter().any(|p| p.contains("lane 4")),
            "must name the bled-into lane: {:?}",
            iso.provenance
        );
        assert!(
            iso.provenance.iter().any(|p| p.starts_with("witness:")),
            "must carry a concrete witness: {:?}",
            iso.provenance
        );
        let ovf = findings
            .iter()
            .find(|f| f.check == "lane-overflow")
            .expect("overflow finding");
        assert!(
            ovf.provenance.iter().any(|p| p.contains("bit 32")),
            "borrow leak must name the boundary bit: {:?}",
            ovf.provenance
        );
        assert!(findings.iter().any(|f| f.check == "lane-mask"));
        assert!(findings
            .iter()
            .any(|f| f.check == "lane-scalar-equivalence"));
    }

    #[test]
    fn splat_broadcast_is_exact_in_the_abstract_domain() {
        // A known scalar splat is fully known.
        let s = flow::splat8(&AbsWord::lit(0x2A));
        assert_eq!(s.ones, lane::splat8(0x2A));
        // An unknown scalar splat is unknown everywhere but tainted only
        // by lane 0.
        let u = flow::splat8(&AbsWord::scalar_byte());
        assert_eq!(u.known(), 0);
        assert!((0..64).all(|i| u.taint[i] == 1));
    }

    #[test]
    fn coverage_includes_every_batch_primitive() {
        for p in TableExp::BATCH_LANE_PRIMITIVES {
            assert!(proved_primitives().contains(p), "{} uncovered", p.name());
        }
    }
}
