//! The score rows a model hands to the Probability Generation step.

use crate::LabelScore;

/// A row-major stride of score rows, all of one form and one width: what a
/// model's gather appends ([`crate::GibbsModel::row_into`]) and what every
/// PG pipeline reads in place.
///
/// The paper's PG core reads two input forms from one score buffer
/// (§III-C):
///
/// - a **log row** holds one log-domain score per label, e.g. an MRF's
///   `-β · TC` (Eq. 4);
/// - a **factor row** holds, per label, the linear-domain numerators and
///   denominators of Eq. 11 (a Bayesian network's Markov-blanket product,
///   Eq. 5; LDA's collapsed conditional, Eq. 6). Every label of a row has
///   the same number of each, so the row is stored as columns of `width`
///   values, one per factor, numerator columns first: column `c` holds
///   factor `c` of every label. Rows of one stride may differ in arity.
///
/// Rows are appended; every row has at least one label, and a stride holds
/// rows of one form and one width (the `push_*` methods panic otherwise).
/// [`ScoreRows::clear`] empties the stride and keeps its buffers, so once a
/// warm-up has grown them a gather allocates nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScoreRows {
    /// Log rows: the scores. Factor rows: each row's columns.
    values: Vec<f64>,
    /// Factor rows only: each row's `(numerators, denominators)` arity.
    arities: Vec<(usize, usize)>,
    /// Labels per row; 0 while the stride is empty.
    width: usize,
    /// Number of rows.
    rows: usize,
    /// Whether the rows are factor rows.
    factors: bool,
}

impl ScoreRows {
    /// An empty stride whose buffers grow on first use.
    pub const fn new() -> Self {
        Self {
            values: Vec::new(),
            arities: Vec::new(),
            width: 0,
            rows: 0,
            factors: false,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the stride holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Labels per row (0 while the stride is empty).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Drop every row, keeping the buffers.
    pub fn clear(&mut self) {
        self.values.clear();
        self.arities.clear();
        (self.width, self.rows, self.factors) = (0, 0, false);
    }

    /// Open a row of `width` labels in the given form, `len` values long,
    /// and return its values, zeroed.
    fn push_row(&mut self, width: usize, factors: bool, len: usize) -> &mut [f64] {
        assert!(width > 0, "row width must be positive");
        if self.is_empty() {
            (self.width, self.factors) = (width, factors);
        }
        assert!(
            (self.width, self.factors) == (width, factors),
            "a stride holds rows of one form and one width"
        );
        self.rows += 1;
        let start = self.values.len();
        self.values.resize(start + len, 0.0);
        &mut self.values[start..]
    }

    /// Append a log row of `width` labels and return it, zeroed, for the
    /// caller to write.
    pub fn push_log_row(&mut self, width: usize) -> &mut [f64] {
        self.push_row(width, false, width)
    }

    /// Append a factor row of `width` labels, each with `numerators`
    /// numerators and `denominators` denominators, and return its
    /// `numerators + denominators` columns, zeroed, for the caller to
    /// write: `width` values each, numerator columns first.
    pub fn push_factor_row(
        &mut self,
        width: usize,
        numerators: usize,
        denominators: usize,
    ) -> &mut [f64] {
        let start = self.values.len();
        self.push_row(width, true, (numerators + denominators) * width);
        self.arities.push((numerators, denominators));
        &mut self.values[start..]
    }

    /// Every row's log-domain scores, row-major, or `None` if the rows are
    /// factor rows.
    pub fn logs(&self) -> Option<&[f64]> {
        (!self.factors).then_some(&self.values)
    }

    /// Row `row`'s log-domain scores, or `None` if the rows are factor
    /// rows. Panics if log rows hold no row `row`.
    pub fn log_row(&self, row: usize) -> Option<&[f64]> {
        let w = self.width;
        self.logs().map(|logs| &logs[row * w..(row + 1) * w])
    }

    /// Every factor row's numerator columns and denominator columns,
    /// `width` values to a column, in order; nothing if the rows are log
    /// rows.
    pub fn factor_rows(&self) -> impl Iterator<Item = (&[f64], &[f64])> + Clone + '_ {
        let (w, mut rest) = (self.width, &self.values[..]);
        self.arities.iter().map(move |&(n, d)| {
            let (numerators, tail) = rest.split_at(n * w);
            let (denominators, tail) = tail.split_at(d * w);
            rest = tail;
            (numerators, denominators)
        })
    }

    /// Row `row`'s [`ScoreRows::factor_rows`] columns. Panics if the rows
    /// are log rows or hold no row `row`.
    pub fn factor_row(&self, row: usize) -> (&[f64], &[f64]) {
        self.factor_rows().nth(row).expect("no such factor row")
    }

    /// Append `scores` as rows of `width` labels: a row of
    /// [`LabelScore::LogDomain`] entries as a log row, a row of
    /// [`LabelScore::Factors`] of one arity as a factor row.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`, if `scores.len()` is not a multiple of
    /// `width`, if a row mixes forms or arities, or if the rows do not fit
    /// the stride's form and width.
    pub fn push_label_scores(&mut self, scores: &[LabelScore], width: usize) {
        assert!(width > 0, "row width must be positive");
        assert_eq!(
            scores.len() % width,
            0,
            "batch length must be a multiple of the row width"
        );
        let shape = |score| {
            let (log, numerators, denominators) = entries(score);
            (log, numerators.len(), denominators.len())
        };
        for row in scores.chunks_exact(width) {
            let (log, n, d) = shape(&row[0]);
            assert!(
                row.iter().all(|s| shape(s) == (log, n, d)),
                "a row's labels share one form and one arity"
            );
            let values = if log {
                self.push_log_row(width)
            } else {
                self.push_factor_row(width, n, d)
            };
            for (l, score) in row.iter().enumerate() {
                let (_, numerators, denominators) = entries(score);
                for (c, &x) in numerators.iter().chain(denominators).enumerate() {
                    values[c * width + l] = x;
                }
            }
        }
    }

    /// Refill `out` with row `row` as one [`LabelScore`] per label,
    /// reusing the factor vectors `out` already holds. Panics if there is
    /// no row `row`.
    pub fn label_scores_into(&self, row: usize, out: &mut Vec<LabelScore>) {
        if let Some(logs) = self.log_row(row) {
            out.clear();
            out.extend(logs.iter().map(|&v| LabelScore::LogDomain(v)));
            return;
        }
        let (w, (nums, dens)) = (self.width, self.factor_row(row));
        out.truncate(w);
        out.resize_with(w, || LabelScore::LogDomain(0.0));
        for (l, slot) in out.iter_mut().enumerate() {
            let [n, d] = [nums, dens].map(|c| c.iter().skip(l).step_by(w).copied());
            match slot {
                LabelScore::Factors {
                    numerators,
                    denominators,
                } => {
                    numerators.clear();
                    numerators.extend(n);
                    denominators.clear();
                    denominators.extend(d);
                }
                LabelScore::LogDomain(_) => {
                    *slot = LabelScore::Factors {
                        numerators: n.collect(),
                        denominators: d.collect(),
                    }
                }
            }
        }
    }
}

/// A label score's form and entries: `(true, [v], [])` for a log score
/// `v`, which a log row holds as its one column, and `(false, numerators,
/// denominators)` for factors.
fn entries(score: &LabelScore) -> (bool, &[f64], &[f64]) {
    match score {
        LabelScore::LogDomain(v) => (true, std::slice::from_ref(v), &[]),
        LabelScore::Factors {
            numerators,
            denominators,
        } => (false, numerators, denominators),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_rows_keep_each_labels_factors_apart() {
        let mut rows = ScoreRows::new();
        rows.push_factor_row(2, 2, 1)
            .copy_from_slice(&[1.0, 2.0, 0.5, 0.5, 4.0, 4.0]);
        assert!(rows.push_factor_row(2, 0, 0).is_empty());
        rows.push_factor_row(2, 1, 0).fill(0.25);
        assert_eq!((rows.len(), rows.width(), rows.logs()), (3, 2, None));
        let (two, one): (&[f64], &[f64]) = (&[1.0, 2.0, 0.5, 0.5], &[4.0, 4.0]);
        let empty: &[f64] = &[];
        assert_eq!(rows.factor_row(0), (two, one));
        assert_eq!(rows.factor_row(1), (empty, empty));
        let all: Vec<_> = rows.factor_rows().collect();
        assert_eq!(
            all,
            [(two, one), (empty, empty), (&[0.25, 0.25][..], empty)]
        );
        rows.clear();
        assert!(rows.is_empty());
        rows.push_log_row(3).copy_from_slice(&[-1.0, -2.0, -3.0]);
        assert_eq!(rows.log_row(0), Some(&[-1.0, -2.0, -3.0][..]));
        assert_eq!(rows.factor_rows().count(), 0);
    }

    #[test]
    #[should_panic(expected = "one form and one width")]
    fn a_stride_refuses_a_second_form() {
        let mut rows = ScoreRows::new();
        rows.push_log_row(2);
        rows.push_factor_row(2, 1, 0);
    }

    #[test]
    #[should_panic(expected = "row width must be positive")]
    fn a_row_needs_a_label() {
        ScoreRows::new().push_log_row(0);
    }

    /// Factor label scores `(numerators, denominators)`.
    fn factors(labels: &[(&[f64], &[f64])]) -> Vec<LabelScore> {
        let factors = |&(n, d): &(&[f64], &[f64])| LabelScore::Factors {
            numerators: n.to_vec(),
            denominators: d.to_vec(),
        };
        labels.iter().map(factors).collect()
    }

    #[test]
    fn label_scores_round_trip_through_columns() {
        // Two factor rows of different arities in one stride, then log rows,
        // each read back into an output that holds the other form.
        let two = factors(&[(&[0.2, 0.5], &[0.8]), (&[0.4, 0.7], &[0.9])]);
        let one = factors(&[(&[0.3], &[]), (&[0.6], &[])]);
        let mut rows = ScoreRows::new();
        rows.push_label_scores(&[two.clone(), one.clone()].concat(), 2);
        assert_eq!(
            rows.factor_row(0),
            (&[0.2, 0.4, 0.5, 0.7][..], &[0.8, 0.9][..])
        );
        let logs = [-1.0, -2.0, -3.0, -4.0].map(LabelScore::LogDomain);
        let mut out = logs.to_vec();
        rows.label_scores_into(0, &mut out);
        assert_eq!(out, two);
        rows.label_scores_into(1, &mut out);
        assert_eq!(out, one);
        rows.clear();
        rows.push_label_scores(&logs, 2);
        rows.label_scores_into(1, &mut out);
        assert_eq!(out, logs[2..]);
    }

    #[test]
    #[should_panic(expected = "one form and one arity")]
    fn a_label_score_row_mixing_forms_is_refused() {
        let mut row = factors(&[(&[0.2], &[])]);
        row.push(LabelScore::LogDomain(-0.5));
        ScoreRows::new().push_label_scores(&row, 2);
    }

    #[test]
    #[should_panic(expected = "one form and one arity")]
    fn a_ragged_label_score_row_is_refused() {
        let row = factors(&[(&[0.2, 0.5], &[0.8]), (&[0.4], &[0.8])]);
        ScoreRows::new().push_label_scores(&row, 2);
    }
}
