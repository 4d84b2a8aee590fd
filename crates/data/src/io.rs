//! Plain-text persistence for chains and trajectory databases.
//!
//! A deliberately simple line-oriented format (no serialization crates
//! needed — the workspace keeps external dependencies at zero) so that datasets can be
//! generated once and reused across benchmark runs, or exchanged with other
//! tools:
//!
//! ```text
//! ust-dataset v1
//! models 1
//! chain <num_states> <nnz>
//! <row> <col> <prob>          # nnz triplet lines
//! objects <count>
//! object <id> <model> <num_observations>
//! obs <time> <nnz>
//! <state> <prob>              # nnz support lines
//! ```

use std::fmt;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use ust_core::{Observation, QueryError, TrajectoryDatabase, UncertainObject};
use ust_markov::{CooBuilder, MarkovChain, SparseVector};

/// Errors raised while reading or writing datasets.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed input at a specific line (1-based).
    Parse {
        /// Line number of the offending input.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The parsed data is structurally invalid (e.g. non-stochastic rows).
    Invalid(QueryError),
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            IoError::Invalid(e) => write!(f, "invalid dataset: {e}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<QueryError> for IoError {
    fn from(e: QueryError) -> Self {
        IoError::Invalid(e)
    }
}

impl From<ust_markov::MarkovError> for IoError {
    fn from(e: ust_markov::MarkovError) -> Self {
        IoError::Invalid(QueryError::from(e))
    }
}

/// Writes a database (all models + all objects) to `w`.
pub fn write_database<W: Write>(db: &TrajectoryDatabase, w: &mut W) -> Result<(), IoError> {
    writeln!(w, "ust-dataset v1")?;
    writeln!(w, "models {}", db.models().len())?;
    for chain in db.models() {
        let m = chain.matrix();
        writeln!(w, "chain {} {}", m.nrows(), m.nnz())?;
        for i in 0..m.nrows() {
            let (cols, vals) = m.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                writeln!(w, "{i} {c} {v:.17}")?;
            }
        }
    }
    writeln!(w, "objects {}", db.len())?;
    for object in db.objects() {
        writeln!(w, "object {} {} {}", object.id(), object.model(), object.observations().len())?;
        for obs in object.observations() {
            writeln!(w, "obs {} {}", obs.time(), obs.distribution().nnz())?;
            for (s, p) in obs.distribution().iter() {
                writeln!(w, "{s} {p:.17}")?;
            }
        }
    }
    Ok(())
}

/// Saves a database to a file.
pub fn save_database(db: &TrajectoryDatabase, path: &Path) -> Result<(), IoError> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    write_database(db, &mut out)?;
    out.flush()?;
    Ok(())
}

/// Line-cursor with 1-based position tracking for error messages.
struct Cursor<R> {
    lines: std::io::Lines<BufReader<R>>,
    line_no: usize,
}

impl<R: Read> Cursor<R> {
    fn new(r: R) -> Self {
        Cursor { lines: BufReader::new(r).lines(), line_no: 0 }
    }

    fn next(&mut self) -> Result<String, IoError> {
        loop {
            self.line_no += 1;
            match self.lines.next() {
                None => {
                    return Err(IoError::Parse {
                        line: self.line_no,
                        message: "unexpected end of input".into(),
                    })
                }
                Some(Err(e)) => return Err(IoError::Io(e)),
                Some(Ok(line)) => {
                    let trimmed = line.split('#').next().unwrap_or("").trim().to_string();
                    if !trimmed.is_empty() {
                        return Ok(trimmed);
                    }
                }
            }
        }
    }

    fn error(&self, message: impl Into<String>) -> IoError {
        IoError::Parse { line: self.line_no, message: message.into() }
    }

    fn expect_tag<'a>(&mut self, tag: &str, line: &'a str) -> Result<Vec<&'a str>, IoError> {
        let mut parts = line.split_whitespace();
        if parts.next() != Some(tag) {
            return Err(self.error(format!("expected '{tag}', got '{line}'")));
        }
        Ok(parts.collect())
    }

    fn parse<T: std::str::FromStr>(&self, token: Option<&str>, what: &str) -> Result<T, IoError> {
        token
            .ok_or_else(|| self.error(format!("missing {what}")))?
            .parse::<T>()
            .map_err(|_| self.error(format!("malformed {what}")))
    }
}

/// Reads a database from `r`.
pub fn read_database<R: Read>(r: R) -> Result<TrajectoryDatabase, IoError> {
    let mut cur = Cursor::new(r);
    let header = cur.next()?;
    if header != "ust-dataset v1" {
        return Err(cur.error(format!("unsupported header '{header}'")));
    }
    let line = cur.next()?;
    let args = cur.expect_tag("models", &line)?;
    let num_models: usize = cur.parse(args.first().copied(), "model count")?;
    if num_models == 0 {
        return Err(cur.error("at least one model required"));
    }

    let mut chains = Vec::with_capacity(num_models);
    for _ in 0..num_models {
        let line = cur.next()?;
        let args = cur.expect_tag("chain", &line)?;
        let n: usize = cur.parse(args.first().copied(), "state count")?;
        let nnz: usize = cur.parse(args.get(1).copied(), "nnz count")?;
        let mut builder = CooBuilder::with_capacity(n, n, nnz);
        for _ in 0..nnz {
            let line = cur.next()?;
            let mut parts = line.split_whitespace();
            let row: usize = cur.parse(parts.next(), "row index")?;
            let col: usize = cur.parse(parts.next(), "column index")?;
            let val: f64 = cur.parse(parts.next(), "probability")?;
            builder.push(row, col, val).map_err(IoError::from)?;
        }
        chains.push(MarkovChain::from_csr(builder.build()).map_err(IoError::from)?);
    }
    let num_states = chains[0].num_states();
    let mut db = TrajectoryDatabase::with_models(chains)?;

    let line = cur.next()?;
    let args = cur.expect_tag("objects", &line)?;
    let num_objects: usize = cur.parse(args.first().copied(), "object count")?;
    for _ in 0..num_objects {
        let line = cur.next()?;
        let args = cur.expect_tag("object", &line)?;
        let id: u64 = cur.parse(args.first().copied(), "object id")?;
        let model: usize = cur.parse(args.get(1).copied(), "model index")?;
        let num_obs: usize = cur.parse(args.get(2).copied(), "observation count")?;
        let mut observations = Vec::with_capacity(num_obs);
        for _ in 0..num_obs {
            let line = cur.next()?;
            let args = cur.expect_tag("obs", &line)?;
            let time: u32 = cur.parse(args.first().copied(), "observation time")?;
            let nnz: usize = cur.parse(args.get(1).copied(), "support size")?;
            let mut pairs = Vec::with_capacity(nnz);
            for _ in 0..nnz {
                let line = cur.next()?;
                let mut parts = line.split_whitespace();
                let state: usize = cur.parse(parts.next(), "state id")?;
                let prob: f64 = cur.parse(parts.next(), "probability")?;
                pairs.push((state, prob));
            }
            let dist = SparseVector::from_pairs(num_states, pairs).map_err(IoError::from)?;
            observations.push(Observation::uncertain(time, dist)?);
        }
        db.insert(UncertainObject::new(id, observations)?.with_model(model))?;
    }
    Ok(db)
}

/// Loads a database from a file.
pub fn load_database(path: &Path) -> Result<TrajectoryDatabase, IoError> {
    read_database(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ust_core::{Query, QueryProcessor, QueryWindow, Strategy};
    use ust_space::TimeSet;

    fn sample_db() -> TrajectoryDatabase {
        let data = crate::synthetic::generate(&crate::SyntheticConfig {
            num_objects: 12,
            num_states: 200,
            ..crate::SyntheticConfig::small()
        });
        data.db
    }

    #[test]
    fn roundtrip_preserves_query_results() {
        let db = sample_db();
        let mut buf = Vec::new();
        write_database(&db, &mut buf).unwrap();
        let loaded = read_database(buf.as_slice()).unwrap();
        assert_eq!(loaded.len(), db.len());
        assert_eq!(loaded.num_states(), db.num_states());

        let window = QueryWindow::from_states(200, 50usize..=60, TimeSet::interval(4, 8)).unwrap();
        let spec = Query::exists().window(window).strategy(Strategy::QueryBased).build().unwrap();
        let a = QueryProcessor::new(&db).execute(&spec).unwrap();
        let b = QueryProcessor::new(&loaded).execute(&spec).unwrap();
        let (a, b) = (a.probabilities().unwrap(), b.probabilities().unwrap());
        assert_eq!(a.len(), db.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.object_id, y.object_id);
            assert!((x.probability - y.probability).abs() < 1e-12);
        }
    }

    #[test]
    fn roundtrip_multi_model_and_multi_observation() {
        let chain_a = ust_oracle::testutil::random_chain(1, 50, 3);
        let chain_b = ust_oracle::testutil::random_chain(2, 50, 3);
        let mut db = TrajectoryDatabase::with_models(vec![chain_a, chain_b]).unwrap();
        db.insert(
            UncertainObject::new(
                7,
                vec![Observation::exact(0, 50, 3).unwrap(), Observation::exact(5, 50, 10).unwrap()],
            )
            .unwrap()
            .with_model(1),
        )
        .unwrap();
        let mut buf = Vec::new();
        write_database(&db, &mut buf).unwrap();
        let loaded = read_database(buf.as_slice()).unwrap();
        assert_eq!(loaded.models().len(), 2);
        let o = loaded.object(0).unwrap();
        assert_eq!(o.id(), 7);
        assert_eq!(o.model(), 1);
        assert_eq!(o.observations().len(), 2);
        assert_eq!(o.observations()[1].time(), 5);
        assert!(loaded.models()[1].matrix().approx_eq(db.models()[1].matrix(), 1e-15));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("ust_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dataset.ust");
        let db = sample_db();
        save_database(&db, &path).unwrap();
        let loaded = load_database(&path).unwrap();
        assert_eq!(loaded.len(), db.len());
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let bad_header = "not-a-dataset\n";
        match read_database(bad_header.as_bytes()) {
            Err(IoError::Parse { line: 1, .. }) => {}
            other => panic!("expected header parse error, got {other:?}"),
        }
        let truncated = "ust-dataset v1\nmodels 1\nchain 3 2\n0 1 0.5\n";
        assert!(matches!(read_database(truncated.as_bytes()), Err(IoError::Parse { .. })));
        let bad_number = "ust-dataset v1\nmodels x\n";
        match read_database(bad_number.as_bytes()) {
            Err(IoError::Parse { line: 2, message }) => {
                assert!(message.contains("model count"));
            }
            other => panic!("expected number parse error, got {other:?}"),
        }
    }

    #[test]
    fn invalid_chain_is_rejected_structurally() {
        // Rows that don't sum to 1 must be rejected by validation, not
        // silently accepted.
        let text = "ust-dataset v1\nmodels 1\nchain 2 2\n0 0 0.5\n1 1 1.0\nobjects 0\n";
        assert!(matches!(read_database(text.as_bytes()), Err(IoError::Invalid(_))));
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let db = sample_db();
        let mut buf = Vec::new();
        write_database(&db, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let commented =
            format!("# leading comment\n\n{}", text.replace("objects", "\n# mid comment\nobjects"));
        let loaded = read_database(commented.as_bytes()).unwrap();
        assert_eq!(loaded.len(), db.len());
    }

    #[test]
    fn error_display_is_informative() {
        let e = IoError::Parse { line: 42, message: "boom".into() };
        assert!(e.to_string().contains("42"));
        let e = IoError::from(std::io::Error::other("disk"));
        assert!(e.to_string().contains("disk"));
    }
}
