//! The score rows a model hands to the Probability Generation step.

use std::ops::Range;

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
///   Eq. 5; LDA's collapsed conditional, Eq. 6). Every label's factors lie
///   in one flat array, numerators first, with per-label end offsets.
///
/// Rows are appended; every row has at least one label, and a stride holds
/// rows of one form and one width (the `push_*` methods panic otherwise).
/// [`ScoreRows::clear`] empties the stride and keeps its buffers, so once a
/// warm-up has grown them a gather allocates nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScoreRows {
    /// Log rows: the scores. Factor rows: each label's numerators, then
    /// its denominators.
    values: Vec<f64>,
    /// Factor rows only: per label, where its numerators and its
    /// denominators end in `values`.
    ends: Vec<(usize, usize)>,
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
            ends: Vec::new(),
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
        self.ends.clear();
        (self.width, self.rows, self.factors) = (0, 0, false);
    }

    /// Open a row of `width` labels in the given form.
    fn begin_row(&mut self, width: usize, factors: bool) {
        assert!(width > 0, "row width must be positive");
        if self.is_empty() {
            (self.width, self.factors) = (width, factors);
        }
        assert!(
            (self.width, self.factors) == (width, factors),
            "a stride holds rows of one form and one width"
        );
        self.rows += 1;
    }

    /// Append a log row of `width` labels and return it, zeroed, for the
    /// caller to write.
    pub fn push_log_row(&mut self, width: usize) -> &mut [f64] {
        self.begin_row(width, false);
        let start = self.values.len();
        self.values.resize(start + width, 0.0);
        &mut self.values[start..]
    }

    /// Append a factor row of `width` labels: `label(l)` gives label `l`'s
    /// numerators and denominators.
    pub fn push_factor_row<N, D>(&mut self, width: usize, mut label: impl FnMut(usize) -> (N, D))
    where
        N: IntoIterator<Item = f64>,
        D: IntoIterator<Item = f64>,
    {
        self.begin_row(width, true);
        for l in 0..width {
            let (numerators, denominators) = label(l);
            self.values.extend(numerators);
            let numerators_end = self.values.len();
            self.values.extend(denominators);
            self.ends.push((numerators_end, self.values.len()));
        }
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

    /// The `(numerators, denominators)` of every label of rows `rows`, row
    /// after row. Panics, when iterated, if the rows are log rows or out of
    /// range.
    pub fn factors(
        &self,
        rows: Range<usize>,
    ) -> impl Iterator<Item = (&[f64], &[f64])> + Clone + '_ {
        let (values, ends) = (&self.values, &self.ends);
        (rows.start * self.width..rows.end * self.width).map(move |i| {
            let start = i.checked_sub(1).map_or(0, |prev| ends[prev].1);
            let (numerators_end, end) = ends[i];
            (&values[start..numerators_end], &values[numerators_end..end])
        })
    }

    /// Append `scores` as rows of `width` labels: log rows if every entry
    /// is [`LabelScore::LogDomain`], otherwise factor rows in which a
    /// `LogDomain(v)` entry is the single numerator `v.exp()`.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`, if `scores.len()` is not a multiple of
    /// `width`, or if the rows do not fit the stride's form and width.
    pub fn push_label_scores(&mut self, scores: &[LabelScore], width: usize) {
        assert!(width > 0, "row width must be positive");
        assert_eq!(
            scores.len() % width,
            0,
            "batch length must be a multiple of the row width"
        );
        let log = scores.iter().all(|s| matches!(s, LabelScore::LogDomain(_)));
        for row in scores.chunks_exact(width) {
            if log {
                let logs = self.push_log_row(width);
                for (slot, score) in logs.iter_mut().zip(row) {
                    if let LabelScore::LogDomain(v) = score {
                        *slot = *v;
                    }
                }
                continue;
            }
            self.push_factor_row(width, |l| {
                let (exp, numerators, denominators) = match &row[l] {
                    LabelScore::LogDomain(v) => (Some(v.exp()), &[][..], &[][..]),
                    LabelScore::Factors {
                        numerators,
                        denominators,
                    } => (None, &numerators[..], &denominators[..]),
                };
                let numerators = exp.into_iter().chain(numerators.iter().copied());
                (numerators, denominators.iter().copied())
            });
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
        out.truncate(self.width);
        out.resize_with(self.width, || LabelScore::LogDomain(0.0));
        for (slot, (nums, dens)) in out.iter_mut().zip(self.factors(row..row + 1)) {
            match slot {
                LabelScore::Factors {
                    numerators,
                    denominators,
                } => {
                    numerators.clear();
                    numerators.extend_from_slice(nums);
                    denominators.clear();
                    denominators.extend_from_slice(dens);
                }
                LabelScore::LogDomain(_) => {
                    *slot = LabelScore::Factors {
                        numerators: nums.to_vec(),
                        denominators: dens.to_vec(),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_rows_keep_each_labels_factors_apart() {
        let mut rows = ScoreRows::new();
        rows.push_factor_row(2, |l| ([1.0 + l as f64, 0.5], [4.0]));
        rows.push_factor_row(2, |l| (vec![0.25; l], []));
        assert_eq!((rows.len(), rows.width(), rows.logs()), (2, 2, None));
        let row = |r: usize| rows.factors(r..r + 1).collect::<Vec<_>>();
        assert_eq!(
            row(0),
            [(&[1.0, 0.5][..], &[4.0][..]), (&[2.0, 0.5], &[4.0])]
        );
        assert_eq!(row(1), [(&[][..], &[][..]), (&[0.25][..], &[][..])]);
        rows.clear();
        assert!(rows.is_empty());
        rows.push_log_row(3).copy_from_slice(&[-1.0, -2.0, -3.0]);
        assert_eq!(rows.log_row(0), Some(&[-1.0, -2.0, -3.0][..]));
    }

    #[test]
    #[should_panic(expected = "one form and one width")]
    fn a_stride_refuses_a_second_form() {
        let mut rows = ScoreRows::new();
        rows.push_log_row(2);
        rows.push_factor_row(2, |_| ([1.0], []));
    }

    #[test]
    #[should_panic(expected = "row width must be positive")]
    fn a_row_needs_a_label() {
        ScoreRows::new().push_log_row(0);
    }

    #[test]
    fn label_scores_round_trip_and_mixed_rows_read_log_entries_as_exp() {
        let mixed = [
            LabelScore::LogDomain(-0.5),
            LabelScore::Factors {
                numerators: vec![0.2, 0.5],
                denominators: vec![0.8],
            },
        ];
        let mut rows = ScoreRows::new();
        rows.push_label_scores(&mixed, 2);
        let row: Vec<_> = rows.factors(0..1).collect();
        assert_eq!(row[0], (&[(-0.5f64).exp()][..], &[][..]));
        assert_eq!(row[1], (&[0.2, 0.5][..], &[0.8][..]));

        let logs = [-1.0, -2.0, -3.0, -4.0].map(LabelScore::LogDomain);
        let mut out = mixed.to_vec();
        rows.clear();
        rows.push_label_scores(&logs, 2);
        rows.label_scores_into(1, &mut out);
        assert_eq!(out, logs[2..]);
        let mut again = ScoreRows::new();
        again.push_label_scores(&mixed[1..], 1);
        again.label_scores_into(0, &mut out);
        assert_eq!(out, mixed[1..]);
    }
}
