//! Logarithm kernels used by LogFusion.
//!
//! LogFusion (§III-C) converts every linear-domain factor through a log
//! kernel before accumulation. As with the exponential, the paper's design
//! point is a LUT-based kernel; the float variant is the reference.

use coopmc_fixed::{round_ties_away, Fixed, QFormat, Rounding};

/// Value returned for `log(x)` when `x <= 0`: the most negative value a
/// Q15.16 log bus can carry. A zero factor makes the whole product zero;
/// saturating the log keeps that behaviour through the exp kernel (which
/// flushes such inputs to zero).
pub const LOG_ZERO: f64 = -32768.0;

/// Stored mantissa bits of an `f64`.
const MANTISSA_BITS: u32 = f64::MANTISSA_DIGITS - 1;

/// Mask of the stored mantissa bits of an `f64`.
const MANTISSA_MASK: u64 = (1 << MANTISSA_BITS) - 1;

/// The widest [`TableLog`] entries that read as two integer tables
/// ([`LogTables`]). Every power-of-two table of at most 16 fraction bits
/// does, at any size; on the paper's Q15.16 bus, tables of 17 or more bits
/// have cells that differ.
const TWO_TABLE_MAX_BITS: u32 = 16;

/// A natural-logarithm kernel.
pub trait LogKernel {
    /// Evaluate `ln(x)`. Implementations saturate `x <= 0` to [`LOG_ZERO`].
    fn log(&self, x: f64) -> f64;

    /// Latency of one evaluation in cycles.
    fn latency_cycles(&self) -> u64;

    /// Short human-readable kernel name for reports.
    fn name(&self) -> &'static str;

    /// Everything the kernel's reads depend on besides their input: two
    /// kernels with equal keys read the same log of every input.
    fn key(&self) -> LogKey;

    /// The kernel as two integer tables of words on the bus `fmt`, when it
    /// reads exactly that way ([`LogTables`]). `None`, the default, means
    /// every input goes through [`LogKernel::log`] and is quantized onto
    /// the bus.
    fn bus_tables(&self, fmt: QFormat) -> Option<LogTables> {
        let _ = fmt;
        None
    }
}

/// What a [`LogKernel`]'s reads depend on besides their input
/// ([`LogKernel::key`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogKey {
    /// The reference [`FloatLog`].
    Float,
    /// A [`TableLog`] of `size_lut` entries of `bit_lut` fraction bits.
    Table {
        /// ROM entries.
        size_lut: usize,
        /// Fraction bits per entry.
        bit_lut: u32,
    },
}

/// A [`TableLog`] read as two integer tables of accumulator-bus words.
///
/// For a positive normal input with biased exponent `E` and stored
/// mantissa `m`, the bus word of the table's log is
/// `exponent[E] + mantissa[m >> shift]`: `exponent[E]` is the word of
/// `log(2^(E − 1023))` and `mantissa` holds the ROM entries as words.
/// That equals quantizing [`LogKernel::log`] onto the bus, cell for cell,
/// when the entries have at most 16 fraction bits and the bus carries
/// every entry and every `e·ln2` exactly. Zero, negative, subnormal,
/// infinite and NaN inputs have no cell.
#[derive(Debug, Clone, PartialEq)]
pub struct LogTables {
    /// Bus words of `log(2^e)` by biased exponent; entry 0 (zero and
    /// subnormal inputs) is never read.
    exponent: Box<[i64; 0x7ff]>,
    /// Bus words of the ROM entries.
    mantissa: Box<[i64]>,
    /// Right shift from the 52 stored mantissa bits to the ROM address.
    shift: u32,
}

impl LogTables {
    /// The bus word of the table's log of `x`, or `None` when `x` is not
    /// a positive normal number.
    #[inline]
    pub(crate) fn word(&self, x: f64) -> Option<i64> {
        let bits = x.to_bits();
        // Sign and biased exponent: 1..=0x7fe is a positive normal number.
        let biased = bits >> MANTISSA_BITS;
        (biased.wrapping_sub(1) < 0x7fe).then(|| {
            let idx = (bits & MANTISSA_MASK) >> self.shift;
            self.exponent[biased as usize] + self.mantissa[idx as usize]
        })
    }
}

/// Full-precision reference logarithm.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FloatLog;

impl FloatLog {
    /// Create the reference kernel.
    pub fn new() -> Self {
        Self
    }
}

impl LogKernel for FloatLog {
    fn log(&self, x: f64) -> f64 {
        if x <= 0.0 {
            LOG_ZERO
        } else {
            x.ln()
        }
    }

    fn latency_cycles(&self) -> u64 {
        crate::cost::LOG_APPROX_CYCLES
    }

    fn name(&self) -> &'static str {
        "float-log"
    }

    fn key(&self) -> LogKey {
        LogKey::Float
    }
}

/// LUT-based logarithm kernel: the log-side counterpart of TableExp.
///
/// Exponent extraction is a priority encoder (free in hardware); only the
/// mantissa's `ln` lives in a ROM of `size_lut` entries over `[1, 2)`,
/// each quantized to `bit_lut` fractional bits and addressed by the top
/// `log2(size_lut)` mantissa bits. The output is `e·ln2 + ROM[mantissa]`
/// computed on the fixed-point accumulator bus.
///
/// For a power-of-two `size_lut` and a positive normal input, `log` reads
/// `e` and the ROM address straight from the `f64` bits, as that priority
/// encoder does. Any other size, and zero, negative, subnormal, infinite
/// or NaN inputs, take the float-index formula: `e = ⌊log2 x⌋` and address
/// `⌊(x/2^e − 1)·size_lut⌋`. The two agree except a few ulps below a power
/// of two `2^k`, where `log2` rounds up to `k` and the float index reads
/// entry 0 of octave `k`. There the priority encoder reads the last entry
/// of octave `k − 1`, which is the specified result.
///
/// On an accumulator bus such as LogFusion's Q15.16, a power-of-two table
/// of at most 16 fraction bits also reads as two integer tables, with no
/// float arithmetic ([`LogKernel::bus_tables`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TableLog {
    entries: Vec<f64>,
    bit_lut: u32,
    out_fmt: QFormat,
    /// Right shift from the 52 stored mantissa bits to the ROM address;
    /// `None` when `size_lut` is not a power of two.
    addr_shift: Option<u32>,
}

impl TableLog {
    /// Build a mantissa-log table with `size_lut` entries of `bit_lut`
    /// fractional bits each.
    ///
    /// # Panics
    ///
    /// Panics if `size_lut == 0` or `bit_lut` is 0 or above 46.
    pub fn new(size_lut: usize, bit_lut: u32) -> Self {
        assert!(size_lut > 0, "size_lut must be positive");
        assert!((1..=46).contains(&bit_lut), "bit_lut must be in 1..=46");
        // Entries cover ln(m) for m in [1, 2): values in [0, ln 2).
        let entries = (0..size_lut)
            .map(|k| {
                let m = 1.0 + k as f64 / size_lut as f64;
                // ln(m) in [0, ln2): quantize onto the bit_lut grid.
                coopmc_fixed::quantize_unsigned(m.ln(), bit_lut, 1u64 << bit_lut)
            })
            .collect();
        let out_fmt = QFormat::new(15, bit_lut.min(46)).expect("valid log output format");
        let addr_shift = size_lut
            .is_power_of_two()
            .then(|| MANTISSA_BITS - size_lut.trailing_zeros());
        Self {
            entries,
            bit_lut,
            out_fmt,
            addr_shift,
        }
    }

    /// Number of ROM entries.
    pub fn size_lut(&self) -> usize {
        self.entries.len()
    }

    /// Fractional bits per ROM entry.
    pub fn bit_lut(&self) -> u32 {
        self.bit_lut
    }

    /// Total ROM capacity in bits.
    pub fn rom_bits(&self) -> u64 {
        self.entries.len() as u64 * self.bit_lut as u64
    }

    /// The float-index formula: exponent from `log2`, ROM address from the
    /// scaled mantissa, output through a `Fixed` round trip. It serves every
    /// input the priority encoder does not, and is the reference the
    /// encoder is tested against.
    fn log_by_float_index(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return LOG_ZERO;
        }
        let e = x.log2().floor();
        let m = x / e.exp2(); // in [1, 2)
        let idx = ((m - 1.0) * self.entries.len() as f64).floor() as usize;
        let idx = idx.min(self.entries.len() - 1);
        let val = e * std::f64::consts::LN_2 + self.entries[idx];
        Fixed::from_f64(val, self.out_fmt, Rounding::Nearest).to_f64()
    }
}

impl LogKernel for TableLog {
    #[inline]
    fn log(&self, x: f64) -> f64 {
        let bits = x.to_bits();
        // Sign and biased exponent: 1..=0x7fe is a positive normal number.
        let biased = bits >> MANTISSA_BITS;
        match self.addr_shift {
            Some(shift) if biased.wrapping_sub(1) < 0x7fe => {
                let e = (biased as i64 - 1023) as f64;
                let idx = ((bits & MANTISSA_MASK) >> shift) as usize;
                let val = e * std::f64::consts::LN_2 + self.entries[idx];
                self.out_fmt.requantize_nearest(val)
            }
            _ => self.log_by_float_index(x),
        }
    }

    fn latency_cycles(&self) -> u64 {
        crate::cost::LUT_CYCLES
    }

    fn name(&self) -> &'static str {
        "table-log"
    }

    fn key(&self) -> LogKey {
        LogKey::Table {
            size_lut: self.entries.len(),
            bit_lut: self.bit_lut,
        }
    }

    fn bus_tables(&self, fmt: QFormat) -> Option<LogTables> {
        // The bus must carry every entry and every e·ln2 (|e·ln2| < 710)
        // without rounding or saturating them.
        let fits = self.bit_lut <= TWO_TABLE_MAX_BITS.min(fmt.frac_bits())
            && fmt.int_bits() >= self.out_fmt.int_bits();
        let shift = self.addr_shift.filter(|_| fits)?;
        // `log(2^e)` reads entry 0, which is 0: e·ln2 rounded to the ROM
        // grid, which no `e` saturates, then moved onto the bus exactly.
        let grid = (1u64 << self.bit_lut) as f64;
        let up = fmt.frac_bits() - self.bit_lut;
        let exponent = Box::new(std::array::from_fn(|biased| {
            let e = (biased as i64 - 1023) as f64;
            (round_ties_away(e * std::f64::consts::LN_2 * grid) as i64) << up
        }));
        let mantissa = self
            .entries
            .iter()
            .map(|&m| fmt.quantize_nearest_raw(m))
            .collect();
        Some(LogTables {
            exponent,
            mantissa,
            shift,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_log_reference_and_saturation() {
        let k = FloatLog::new();
        assert_eq!(k.log(1.0), 0.0);
        assert_eq!(k.log(0.0), LOG_ZERO);
        assert_eq!(k.log(-3.0), LOG_ZERO);
    }

    #[test]
    fn table_log_accurate_with_large_table() {
        let k = TableLog::new(1024, 24);
        for x in [0.01, 0.3, 1.0, 2.5, 100.0] {
            let err = (k.log(x) - x.ln()).abs();
            assert!(err < 2e-3, "x={x} err={err}");
        }
    }

    #[test]
    fn table_log_handles_zero_factor() {
        let k = TableLog::new(64, 8);
        assert_eq!(k.log(0.0), LOG_ZERO);
    }

    #[test]
    fn table_log_is_monotone_nondecreasing() {
        let k = TableLog::new(128, 16);
        let mut prev = f64::NEG_INFINITY;
        let mut x = 0.01;
        while x < 50.0 {
            let y = k.log(x);
            assert!(y >= prev - 1e-9, "non-monotone at x={x}");
            prev = y;
            x *= 1.13;
        }
    }

    #[test]
    fn log_exp_round_trip_through_luts() {
        // TableLog then TableExp should approximately invert for values in
        // (0, 1]: the core LogFusion correctness property.
        let lg = TableLog::new(1024, 16);
        let ex = crate::exp::TableExp::new(1024, 16);
        use crate::exp::ExpKernel;
        for v in [0.9, 0.5, 0.11, 0.027] {
            let back = ex.exp(lg.log(v));
            assert!((back - v).abs() < 0.03, "v={v} back={back}");
        }
    }

    /// Every ROM size 1, 2, …, 1024, each at the bit widths
    /// `coopmc-analyze`'s `in_tree_configs()` builds it with (sizes 1, 2
    /// and 4 appear in no config and run at 8 bits).
    const CELL_CONFIGS: [(usize, &[u32]); 11] = [
        (1, &[8]),
        (2, &[8]),
        (4, &[8]),
        (8, &[16, 2, 4, 8]),
        (16, &[32, 4, 8, 16]),
        (32, &[32, 2, 4, 8, 16]),
        (64, &[32, 4, 8, 16]),
        (128, &[32, 2, 4, 8, 16]),
        (256, &[32, 4, 8, 16]),
        (512, &[32, 2, 4, 8, 16]),
        (1024, &[32, 4, 8, 16, 24]),
    ];

    /// The input with biased exponent `biased` and stored mantissa `man`.
    fn from_parts(biased: u64, man: u64) -> f64 {
        f64::from_bits((biased << MANTISSA_BITS) | man)
    }

    #[test]
    fn priority_encoder_matches_float_index_on_every_cell() {
        // Each (exponent, index) cell at its lower edge 2^E·(1 + i/size)
        // and at the next cell's lower edge minus one ulp; the top cell's
        // upper point is the below-2^k edge, pinned separately. Every
        // normal exponent runs at each size's first width; the other
        // widths cover 2^-64..2^64, which holds every workload factor.
        for (size, bits) in CELL_CONFIGS {
            let shift = MANTISSA_BITS - size.trailing_zeros();
            for (w, &bit) in bits.iter().enumerate() {
                let k = TableLog::new(size, bit);
                let exponents = if w == 0 { 1..=0x7fe } else { 959..=1086 };
                for biased in exponents {
                    for i in 0..size as u64 {
                        let lower = from_parts(biased, i << shift);
                        // The top cell's upper point repeats its lower edge.
                        let upper = if i + 1 < size as u64 {
                            f64::from_bits(from_parts(biased, (i + 1) << shift).to_bits() - 1)
                        } else {
                            lower
                        };
                        for x in [lower, upper] {
                            assert_eq!(
                                k.log(x).to_bits(),
                                k.log_by_float_index(x).to_bits(),
                                "{size}x{bit} x={x:e}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn just_below_a_power_of_two_reads_the_top_cell_of_the_octave_below() {
        // 1–4 ulps below 2^k, `log2` can round up to k, so the float index
        // reads entry 0 of octave k (316 of these 360 probes with glibc's
        // log2). The priority encoder reads the last entry of octave k − 1:
        // the same cell as that entry's lower edge, 2^(k-1)·(2 − 1/size).
        let mut rounded_up = 0;
        for (size, bit) in [(64, 8), (1024, 24), (1, 8)] {
            let k = TableLog::new(size, bit);
            for p in -30i32..60 {
                let top_cell = 2f64.powi(p - 1) * (2.0 - 1.0 / size as f64);
                for ulps in 1..=4 {
                    let x = f64::from_bits(2f64.powi(p).to_bits() - ulps);
                    assert_eq!(
                        k.log(x).to_bits(),
                        k.log_by_float_index(top_cell).to_bits(),
                        "{size}x{bit} 2^{p} - {ulps} ulp"
                    );
                    if x.log2().floor() == p as f64 {
                        rounded_up += 1;
                        let next_octave = k.log_by_float_index(2f64.powi(p));
                        assert_eq!(k.log_by_float_index(x), next_octave);
                    }
                }
            }
        }
        assert!(rounded_up > 0, "no probe reached the rounded-up edge");
    }

    #[test]
    fn other_sizes_and_special_inputs_keep_the_float_index() {
        let specials = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            -1.5,
            f64::MIN_POSITIVE / 3.0,                  // subnormal
            f64::from_bits(1),                        // smallest subnormal
            f64::from_bits((1 << MANTISSA_BITS) - 1), // largest subnormal
        ];
        for (size, bit) in [(64, 8), (1024, 24), (48, 8)] {
            let k = TableLog::new(size, bit);
            for x in specials {
                assert_eq!(
                    k.log(x).to_bits(),
                    k.log_by_float_index(x).to_bits(),
                    "{size}x{bit} x={x:e}"
                );
            }
            assert_eq!(k.log(f64::NAN), 0.0, "NaN quantizes to zero");
            assert_eq!(k.log(f64::INFINITY), k.out_fmt.max_value());
            assert_eq!(k.log(f64::NEG_INFINITY), LOG_ZERO);
        }
        // A size that is not a power of two has no mantissa-bit address:
        // every input, the below-2^k edge included, takes the float index.
        let k = TableLog::new(48, 8);
        for p in -30i32..60 {
            for x in [
                2f64.powi(p),
                2f64.powi(p) * 1.37,
                f64::from_bits(2f64.powi(p).to_bits() - 1),
            ] {
                assert_eq!(k.log(x).to_bits(), k.log_by_float_index(x).to_bits());
            }
        }
    }

    /// The paper's Q15.16 accumulator bus.
    fn bus() -> QFormat {
        QFormat::baseline32()
    }

    /// Cells of `k`'s two tables on the bus `fmt` that differ from the
    /// float read quantized onto it, over every (exponent, address) cell.
    fn differing_cells(k: &TableLog, tables: &LogTables, fmt: QFormat) -> usize {
        let mut differing = 0;
        for biased in 1..=0x7fe {
            for i in 0..k.size_lut() as u64 {
                let x = from_parts(biased, i << tables.shift);
                let want = fmt.quantize_nearest_raw(k.log(x));
                differing += usize::from(tables.word(x) != Some(want));
            }
        }
        differing
    }

    #[test]
    fn two_tables_read_every_cell_of_the_cli_default_as_the_float_read() {
        // 2,046 exponents × 64 addresses = 130,944 cells. A cell's log
        // depends only on its exponent and address, so its lower edge
        // stands for every input in it.
        let k = TableLog::new(64, 8);
        let tables = k.bus_tables(bus()).expect("64x8 reads as two tables");
        assert_eq!(differing_cells(&k, &tables, bus()), 0);
        for x in [0.0, -0.0, -1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(tables.word(x), None, "x={x:e}");
        }
        assert_eq!(tables.word(f64::MIN_POSITIVE / 3.0), None, "subnormal");
    }

    #[test]
    fn two_tables_hold_at_every_size_up_to_16_bits() {
        // Per exponent, one argument covers every size at once. Let
        // p = e·ln2 as `log` computes it and m an entry: a multiple of
        // 2^-b in [0, 1], whatever the size. `log` rounds p + m to
        // `f64`, off by at most half an ulp of |p| + 1, then to the 2^-b
        // grid. If p·2^b lies further than that error (scaled by 2^b)
        // from the rounding tie between its grid neighbours, adding m
        // (a whole number of grid steps) can neither cross the tie nor
        // land on it, so the grid value of p + m is that of p plus m
        // exactly: the bus word is exponent[E] + mantissa[idx] for every
        // entry of every size. The bus holds b ≤ 16 bits exactly.
        let ln2 = std::f64::consts::LN_2;
        for bit in 1..=TWO_TABLE_MAX_BITS {
            let grid = (1u64 << bit) as f64;
            let k = TableLog::new(1, bit);
            let tables = k.bus_tables(bus()).expect("at most 16 bits");
            for biased in 1..=0x7fe_u64 {
                let p = (biased as i64 - 1023) as f64 * ln2;
                let scaled = p * grid;
                let tie_distance = (scaled - scaled.floor() - 0.5).abs();
                let octave = f64::from_bits((p.abs() + 1.0).to_bits() & !MANTISSA_MASK);
                let half_ulp = octave * f64::EPSILON / 2.0;
                assert!(
                    tie_distance > half_ulp * grid,
                    "2^-{bit} grid, biased exponent {biased}: p·2^b is {tie_distance:e} from a tie"
                );
                // exponent[E] is the closed form of log(2^e) on the bus.
                let x = from_parts(biased, 0);
                let want = bus().quantize_nearest_raw(k.log(x));
                assert_eq!(tables.exponent[biased as usize], want, "{bit} bits, {x:e}");
            }
        }
        // Every power-of-two size up to 1024 builds its tables at every
        // width up to 16 bits, with entries on the 2^-bit grid in [0, 1].
        for n in 0..=10 {
            for bit in 1..=TWO_TABLE_MAX_BITS {
                let k = TableLog::new(1 << n, bit);
                let tables = k.bus_tables(bus()).expect("at most 16 bits");
                let step = 1i64 << (16 - bit);
                assert!(tables.mantissa.iter().all(|&w| w % step == 0));
                assert!(k.entries.iter().all(|&m| (0.0..1.0).contains(&m)));
            }
        }
        // Two more exhaustive cell sweeps, at the widest rule-width table
        // in tree and at the narrowest entries.
        for (size, bit) in [(1024, 16), (2, 1)] {
            let k = TableLog::new(size, bit);
            let tables = k.bus_tables(bus()).unwrap();
            assert_eq!(differing_cells(&k, &tables, bus()), 0, "{size}x{bit}");
        }
    }

    #[test]
    fn wider_tables_differ_and_keep_the_float_read() {
        // Entries of 17 or more fraction bits are off the Q15.16 grid: two
        // tables that quantize log(2^e) and each entry onto the bus
        // separately differ from the float read on some cells, so those
        // tables keep the float read.
        for (size, bit, want) in [(64, 17, 27_594), (1024, 24, 516_849)] {
            let k = TableLog::new(size, bit);
            assert_eq!(k.bus_tables(bus()), None, "{size}x{bit}");
            let word = |x: f64| bus().quantize_nearest_raw(x);
            let tables = LogTables {
                exponent: Box::new(std::array::from_fn(|b| {
                    word(k.log(from_parts(b as u64, 0)))
                })),
                mantissa: k.entries.iter().map(|&m| word(m)).collect(),
                shift: k.addr_shift.unwrap(),
            };
            assert_eq!(differing_cells(&k, &tables, bus()), want, "{size}x{bit}");
        }
        // Sizes that are not powers of two, and buses that would round or
        // saturate the tables, keep the float read too.
        assert_eq!(TableLog::new(48, 8).bus_tables(bus()), None);
        assert_eq!(
            TableLog::new(64, 8).bus_tables(QFormat::new(15, 4).unwrap()),
            None
        );
        assert_eq!(
            TableLog::new(64, 8).bus_tables(QFormat::new(9, 16).unwrap()),
            None
        );
        assert_eq!(FloatLog::new().bus_tables(bus()), None);
    }

    #[test]
    fn rom_bits_reported() {
        assert_eq!(TableLog::new(256, 16).rom_bits(), 4096);
    }

    #[test]
    #[should_panic(expected = "size_lut")]
    fn empty_table_panics() {
        let _ = TableLog::new(0, 8);
    }
}
