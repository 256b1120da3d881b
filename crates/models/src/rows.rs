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
/// A factor row whose factors are integer counts plus a constant, as LDA's
/// `DT + α`, `VT + β` and `ΣVT + βV` are, may be stored as a **count
/// row**: `u32` columns, each with its [`CountColumn`]. Column `c`'s value
/// for a count `n` is `f64::from(n) + constant`, its **image**; a count row
/// stores no `f64`, and readers that want the values compute the image
/// ([`ScoreRows::factor_columns`]).
///
/// Rows are appended; every row has at least one label, and a stride holds
/// rows of one form and one width (the `push_*` methods panic otherwise).
/// [`ScoreRows::clear`] empties the stride and keeps its buffers, so once a
/// warm-up has grown them a gather allocates nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScoreRows {
    /// Log rows: the scores. `f64` factor rows: each row's columns.
    values: Vec<f64>,
    /// Count rows: each row's columns.
    counts: Vec<u32>,
    /// Count rows: each row's columns' constants and bounds, in order.
    columns: Vec<CountColumn>,
    /// Factor and count rows: each row's `(numerators, denominators)`
    /// arity.
    arities: Vec<(usize, usize)>,
    /// Labels per row; 0 while the stride is empty.
    width: usize,
    /// Number of rows.
    rows: usize,
    /// The rows' form.
    form: RowForm,
}

/// The form of a [`ScoreRows`] stride's rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RowForm {
    /// Log-domain scores, one per label. An empty stride reads as log rows.
    #[default]
    Log,
    /// Factor rows of `f64` columns.
    Factors,
    /// Factor rows of count columns.
    Counts,
}

/// A count column's constant and bound: its values are
/// `f64::from(count) + constant` for counts in `0..=bound`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CountColumn {
    /// Added to every count of the column.
    pub constant: f64,
    /// The largest count the column holds.
    pub bound: u32,
}

/// One count row of a stride ([`ScoreRows::count_rows`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CountRow<'a> {
    /// The columns' counts, `width` to a column, numerator columns first.
    pub counts: &'a [u32],
    /// Each column's constant and bound, in column order.
    pub columns: &'a [CountColumn],
    /// How many of the columns are numerators; the rest are denominators.
    pub numerators: usize,
}

impl ScoreRows {
    /// An empty stride whose buffers grow on first use.
    pub const fn new() -> Self {
        Self {
            values: Vec::new(),
            counts: Vec::new(),
            columns: Vec::new(),
            arities: Vec::new(),
            width: 0,
            rows: 0,
            form: RowForm::Log,
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

    /// The rows' form.
    pub fn form(&self) -> RowForm {
        self.form
    }

    /// Drop every row, keeping the buffers.
    pub fn clear(&mut self) {
        self.values.clear();
        self.counts.clear();
        self.columns.clear();
        self.arities.clear();
        (self.width, self.rows, self.form) = (0, 0, RowForm::Log);
    }

    /// Open a row of `width` labels in `form`, checking that it fits the
    /// stride.
    fn open_row(&mut self, width: usize, form: RowForm) {
        assert!(width > 0, "row width must be positive");
        if self.is_empty() {
            (self.width, self.form) = (width, form);
        }
        assert!(
            (self.width, self.form) == (width, form),
            "a stride holds rows of one form and one width"
        );
        self.rows += 1;
    }

    /// Open a row of `width` labels in `form`, `len` values long, and
    /// return its values, zeroed.
    fn push_row(&mut self, width: usize, form: RowForm, len: usize) -> &mut [f64] {
        self.open_row(width, form);
        let start = self.values.len();
        self.values.resize(start + len, 0.0);
        &mut self.values[start..]
    }

    /// Append a log row of `width` labels and return it, zeroed, for the
    /// caller to write.
    pub fn push_log_row(&mut self, width: usize) -> &mut [f64] {
        self.push_row(width, RowForm::Log, width)
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
        self.push_row(width, RowForm::Factors, (numerators + denominators) * width);
        self.arities.push((numerators, denominators));
        &mut self.values[start..]
    }

    /// Append a count row of `width` labels with one count column per
    /// entry of `numerators` and `denominators`, and return its columns,
    /// zeroed, for the caller to write: `width` counts each, numerator
    /// columns first. Each count must lie within its column's bound.
    pub fn push_count_row(
        &mut self,
        width: usize,
        numerators: &[CountColumn],
        denominators: &[CountColumn],
    ) -> &mut [u32] {
        self.open_row(width, RowForm::Counts);
        self.arities.push((numerators.len(), denominators.len()));
        self.columns.extend_from_slice(numerators);
        self.columns.extend_from_slice(denominators);
        let start = self.counts.len();
        let len = (numerators.len() + denominators.len()) * width;
        self.counts.resize(start + len, 0);
        &mut self.counts[start..]
    }

    /// Every row's log-domain scores, row-major, or `None` if the rows are
    /// factor rows.
    pub fn logs(&self) -> Option<&[f64]> {
        (self.form == RowForm::Log).then_some(&self.values)
    }

    /// Row `row`'s log-domain scores, or `None` if the rows are factor
    /// rows. Panics if log rows hold no row `row`.
    pub fn log_row(&self, row: usize) -> Option<&[f64]> {
        let w = self.width;
        self.logs().map(|logs| &logs[row * w..(row + 1) * w])
    }

    /// Every `f64` factor row's numerator columns and denominator columns,
    /// `width` values to a column, in order; nothing if the rows are log or
    /// count rows.
    pub fn factor_rows(&self) -> impl Iterator<Item = (&[f64], &[f64])> + Clone + '_ {
        let (w, mut rest) = (self.width, &self.values[..]);
        let arities = match self.form {
            RowForm::Factors => &self.arities[..],
            _ => &[],
        };
        arities.iter().map(move |&(n, d)| {
            let (numerators, tail) = rest.split_at(n * w);
            let (denominators, tail) = tail.split_at(d * w);
            rest = tail;
            (numerators, denominators)
        })
    }

    /// Row `row`'s [`ScoreRows::factor_rows`] columns. Panics if the rows
    /// are not `f64` factor rows or hold no row `row`.
    pub fn factor_row(&self, row: usize) -> (&[f64], &[f64]) {
        self.factor_rows().nth(row).expect("no such factor row")
    }

    /// Every count row, in order; nothing if the rows are log or `f64`
    /// factor rows.
    pub fn count_rows(&self) -> impl Iterator<Item = CountRow<'_>> + Clone + '_ {
        let w = self.width;
        let (mut counts, mut columns) = (&self.counts[..], &self.columns[..]);
        let arities = match self.form {
            RowForm::Counts => &self.arities[..],
            _ => &[],
        };
        arities.iter().map(move |&(n, d)| {
            let (row_columns, tail) = columns.split_at(n + d);
            columns = tail;
            let (row_counts, tail) = counts.split_at((n + d) * w);
            counts = tail;
            CountRow {
                counts: row_counts,
                columns: row_columns,
                numerators: n,
            }
        })
    }

    /// Row `row`'s numerator and denominator columns as `f64` values: an
    /// `f64` factor row's own columns, or a count row's image written into
    /// `image` (whose contents are replaced). Panics if the rows are log
    /// rows or hold no row `row`.
    pub fn factor_columns<'a>(
        &'a self,
        row: usize,
        image: &'a mut Vec<f64>,
    ) -> (&'a [f64], &'a [f64]) {
        if self.form != RowForm::Counts {
            return self.factor_row(row);
        }
        let counts = self.count_rows().nth(row).expect("no such factor row");
        counts.image_into(self.width, image);
        image.split_at(counts.numerators * self.width)
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
        let w = self.width;
        out.truncate(w);
        out.resize_with(w, || LabelScore::LogDomain(0.0));
        if self.form == RowForm::Counts {
            let r = self.count_rows().nth(row).expect("no such factor row");
            let label = |l: usize, columns: std::ops::Range<usize>| {
                columns.map(move |c| f64::from(r.counts[c * w + l]) + r.columns[c].constant)
            };
            let (n, all) = (r.numerators, r.columns.len());
            for (l, slot) in out.iter_mut().enumerate() {
                refill(slot, label(l, 0..n), label(l, n..all));
            }
        } else {
            let (nums, dens) = self.factor_row(row);
            for (l, slot) in out.iter_mut().enumerate() {
                let [n, d] = [nums, dens].map(|c| c.iter().skip(l).step_by(w).copied());
                refill(slot, n, d);
            }
        }
    }
}

/// Make `slot` the factor score `numerators / denominators`, reusing the
/// vectors it already holds.
fn refill(slot: &mut LabelScore, n: impl Iterator<Item = f64>, d: impl Iterator<Item = f64>) {
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

impl CountRow<'_> {
    /// Replace `image`'s contents with the row's values, `width` to a
    /// column: each count's `f64::from(count) + constant`.
    fn image_into(&self, width: usize, image: &mut Vec<f64>) {
        image.clear();
        let columns = self.counts.chunks_exact(width).zip(self.columns);
        for (counts, column) in columns {
            image.extend(counts.iter().map(|&n| f64::from(n) + column.constant));
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
    fn count_rows_keep_their_columns_and_read_as_their_image() {
        // Two count rows of different arities in one stride: each keeps its
        // counts, constants and bounds, and its image is each count plus
        // its column's constant.
        let column = |constant, bound| CountColumn { constant, bound };
        let (a, b, c) = (column(0.5, 4), column(0.25, 9), column(2.0, 7));
        let mut rows = ScoreRows::new();
        rows.push_count_row(2, &[a, b], &[c])
            .copy_from_slice(&[1, 4, 0, 9, 7, 3]);
        rows.push_count_row(2, &[], &[a]).copy_from_slice(&[2, 0]);
        assert_eq!((rows.len(), rows.width()), (2, 2));
        assert_eq!((rows.form(), rows.logs()), (RowForm::Counts, None));
        assert_eq!(rows.factor_rows().count(), 0);
        let all: Vec<_> = rows.count_rows().collect();
        assert_eq!(
            all,
            [
                CountRow {
                    counts: &[1, 4, 0, 9, 7, 3],
                    columns: &[a, b, c],
                    numerators: 2,
                },
                CountRow {
                    counts: &[2, 0],
                    columns: &[a],
                    numerators: 0,
                },
            ]
        );
        let mut image = vec![9.0; 9];
        assert_eq!(
            rows.factor_columns(0, &mut image),
            (&[1.5, 4.5, 0.25, 9.25][..], &[9.0, 5.0][..])
        );
        let empty: &[f64] = &[];
        assert_eq!(rows.factor_columns(1, &mut image), (empty, &[2.5, 0.5][..]));
        let mut scores = Vec::new();
        rows.label_scores_into(1, &mut scores);
        let only_denominator = |d: f64| LabelScore::Factors {
            numerators: Vec::new(),
            denominators: vec![d],
        };
        assert_eq!(scores, [only_denominator(2.5), only_denominator(0.5)]);
        // An f64 factor row reads its own columns, whatever the image holds.
        rows.clear();
        rows.push_factor_row(1, 1, 1).copy_from_slice(&[3.0, 4.0]);
        assert_eq!(rows.factor_columns(0, &mut image), (&[3.0][..], &[4.0][..]));
    }

    #[test]
    #[should_panic(expected = "one form and one width")]
    fn a_stride_refuses_count_rows_after_factor_rows() {
        let mut rows = ScoreRows::new();
        rows.push_factor_row(2, 1, 0);
        rows.push_count_row(2, &[], &[]);
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
