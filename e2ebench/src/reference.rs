//! Stored reference outputs the timed workloads are checked against.
//!
//! The file is plain text, one record per line:
//!
//! ```text
//! session <condition label> <iter> <chaos::digest, 16 hex digits>
//! cell <cell label> <Cubic share f64 bits> <BBR share f64 bits> <verdict label>
//! chaos <campaign seed> <first trial> <trial count> <verdict tag>
//! ```
//!
//! `chaos` lines run-length encode the per-trial verdicts of one campaign
//! seed. Blank lines and lines starting with `#` are ignored. The records
//! are produced by `--bless`, which runs every job of every input set
//! once.

use std::collections::HashMap;

/// The reference text compiled into the benchmark.
const REFERENCE_TEXT: &str = include_str!("../reference.txt");

/// Expected outcome of one bulk cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CellRef {
    /// `f64::to_bits` of the measured Cubic share.
    pub loss_bits: u64,
    /// `f64::to_bits` of the measured BBR share.
    pub bbr_bits: u64,
    /// `CellVerdict::label` of the graded cell.
    pub verdict: String,
}

/// One run of identical chaos verdicts: trials `first .. first + count`.
#[derive(Clone, Debug, PartialEq)]
struct VerdictRun {
    first: u32,
    count: u32,
    tag: String,
}

/// Parsed reference outputs.
#[derive(Clone, Debug, Default)]
pub struct Reference {
    sessions: HashMap<(String, u32), u64>,
    cells: HashMap<String, CellRef>,
    chaos: HashMap<u64, Vec<VerdictRun>>,
}

fn field<'a>(it: &mut impl Iterator<Item = &'a str>, what: &str) -> Result<&'a str, String> {
    it.next().ok_or_else(|| format!("missing {what}"))
}

fn hex(s: &str) -> Result<u64, String> {
    u64::from_str_radix(s, 16).map_err(|e| format!("bad hex {s:?}: {e}"))
}

fn num<T: std::str::FromStr>(s: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("bad number {s:?}: {e}"))
}

impl Reference {
    /// The compiled-in reference.
    pub fn builtin() -> Result<Self, String> {
        Self::parse(REFERENCE_TEXT)
    }

    /// Parse reference text (see the module docs for the format).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut r = Reference::default();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            r.parse_line(line)
                .map_err(|e| format!("reference line {}: {e}", n + 1))?;
        }
        Ok(r)
    }

    fn parse_line(&mut self, line: &str) -> Result<(), String> {
        let mut it = line.split_whitespace();
        match field(&mut it, "record kind")? {
            "session" => {
                let label = field(&mut it, "label")?.to_string();
                let iter = num(field(&mut it, "iter")?)?;
                let digest = hex(field(&mut it, "digest")?)?;
                self.sessions.insert((label, iter), digest);
            }
            "cell" => {
                let label = field(&mut it, "label")?.to_string();
                let loss_bits = hex(field(&mut it, "cubic share")?)?;
                let bbr_bits = hex(field(&mut it, "bbr share")?)?;
                let verdict = field(&mut it, "verdict")?.to_string();
                self.cells.insert(
                    label,
                    CellRef {
                        loss_bits,
                        bbr_bits,
                        verdict,
                    },
                );
            }
            "chaos" => {
                let seed = num(field(&mut it, "seed")?)?;
                let first = num(field(&mut it, "first trial")?)?;
                let count = num(field(&mut it, "trial count")?)?;
                let tag = field(&mut it, "verdict")?.to_string();
                self.chaos
                    .entry(seed)
                    .or_default()
                    .push(VerdictRun { first, count, tag });
            }
            other => return Err(format!("unknown record kind {other:?}")),
        }
        match it.next() {
            Some(extra) => Err(format!("trailing field {extra:?}")),
            None => Ok(()),
        }
    }

    /// Stored digest of session `(label, iter)`.
    pub fn session(&self, label: &str, iter: u32) -> Option<u64> {
        self.sessions.get(&(label.to_string(), iter)).copied()
    }

    /// `Ok` if session `(label, iter)` produced its stored digest.
    pub fn check_session(&self, label: &str, iter: u32, got: u64) -> Result<(), String> {
        match self.session(label, iter) {
            Some(want) if want == got => Ok(()),
            Some(want) => Err(format!(
                "{label} iter {iter}: digest {got:016x}, reference {want:016x}"
            )),
            None => Err(format!("{label} iter {iter}: no reference digest")),
        }
    }

    /// Stored outcome of bulk cell `label`.
    pub fn cell(&self, label: &str) -> Option<&CellRef> {
        self.cells.get(label)
    }

    /// Stored verdict tag of chaos trial `index` of campaign `seed`.
    pub fn trial(&self, seed: u64, index: u32) -> Option<&str> {
        self.chaos
            .get(&seed)?
            .iter()
            .find_map(|r| (index >= r.first && index - r.first < r.count).then_some(r.tag.as_str()))
    }

    /// Replace a stored session digest (used to plant a corrupted
    /// reference in the benchmark's own tests).
    pub fn set_session(&mut self, label: &str, iter: u32, digest: u64) {
        self.sessions.insert((label.to_string(), iter), digest);
    }
}

/// Render one `session` record.
pub fn session_line(label: &str, iter: u32, digest: u64) -> String {
    format!("session {label} {iter} {digest:016x}")
}

/// Render one `cell` record.
pub fn cell_line(label: &str, c: &CellRef) -> String {
    format!(
        "cell {label} {:016x} {:016x} {}",
        c.loss_bits, c.bbr_bits, c.verdict
    )
}

/// Render the `chaos` records of one campaign seed from its per-trial
/// verdict tags, run-length encoded.
pub fn chaos_lines(seed: u64, tags: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tags.len() {
        let mut j = i;
        while j < tags.len() && tags[j] == tags[i] {
            j += 1;
        }
        out.push(format!("chaos {seed} {i} {} {}", j - i, tags[i]));
        i = j;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip() {
        let cell = CellRef {
            loss_bits: 0.25f64.to_bits(),
            bbr_bits: 0.75f64.to_bits(),
            verdict: "inapplicable(queue-not-deep)".into(),
        };
        let mut text = vec![
            session_line("luna-cubic-b25-q2", 3, 0xdead_beef),
            cell_line("model/c25q2r16.5n1", &cell),
        ];
        text.extend(chaos_lines(9, &["clean", "clean", "timeout", "clean"]));
        let r = Reference::parse(&text.join("\n")).expect("renders parse back");
        assert_eq!(r.session("luna-cubic-b25-q2", 3), Some(0xdead_beef));
        assert_eq!(r.session("luna-cubic-b25-q2", 4), None);
        assert_eq!(r.cell("model/c25q2r16.5n1"), Some(&cell));
        assert_eq!(r.trial(9, 1), Some("clean"));
        assert_eq!(r.trial(9, 2), Some("timeout"));
        assert_eq!(r.trial(9, 3), Some("clean"));
        assert_eq!(r.trial(9, 4), None);
        assert_eq!(r.trial(8, 0), None);
    }

    #[test]
    fn malformed_lines_are_refused() {
        assert!(Reference::parse("session a 1").is_err());
        assert!(Reference::parse("session a 1 zz").is_err());
        assert!(Reference::parse("session a 1 00 extra").is_err());
        assert!(Reference::parse("bogus").is_err());
        assert!(Reference::parse("# comment\n\n").is_ok());
    }
}
