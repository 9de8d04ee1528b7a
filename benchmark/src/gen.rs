//! Seeded input generator (std only), shared by `ddbench` and — through a
//! `#[path]` include — `ddbench-trace`, so both measure the same inputs.
//!
//! Everything the program under test receives is made here from `--seed`:
//! the spouse corpus as pre-tokenised TSVs, the ground-truth mention pairs,
//! the raw text the tracer feeds to the NLP layer, the new-couple documents
//! the writers post, and the read schedules of the open-loop generators.
//! Sentence kinds and templates are dealt from fixed-proportion decks that
//! are then shuffled, so corpus and graph sizes are the same for every seed
//! and only names, pairings and order change: run-to-run spread then comes
//! from the program, not from the inputs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// SplitMix64: tiny, seedable, and good enough to deal decks.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

const FIRST: &[&str] = &[
    "James", "Mary", "John", "Linda", "Robert", "Susan", "Michael", "Karen", "William", "Nancy",
    "David", "Lisa", "Richard", "Betty", "Joseph", "Helen", "Thomas", "Sandra", "Charles", "Donna",
    "Daniel", "Carol", "Matthew", "Ruth", "Anthony", "Sharon", "Mark", "Laura", "Paul", "Sarah",
    "Steven", "Kim", "Andrew", "Jessica", "Kenneth", "Amy", "George", "Anna", "Kevin", "Emma",
];
const LAST: &[&str] = &[
    "Smith", "Johnson", "Brown", "Taylor", "Miller", "Wilson", "Moore", "Clark", "Lewis", "Walker",
    "Hall", "Allen", "Young", "King", "Wright", "Scott", "Green", "Baker", "Adams", "Nelson",
    "Hill", "Campbell", "Mitchell", "Roberts", "Carter", "Phillips", "Evans", "Turner", "Torres",
    "Parker", "Collins", "Edwards", "Stewart", "Flores", "Morris", "Nguyen", "Murphy", "Rivera",
    "Cook", "Rogers", "Morgan", "Peterson", "Cooper", "Reed", "Bailey", "Bell", "Gomez", "Kelly",
    "Howard", "Ward",
];
const MIDDLE: &[&str] = &["Lee", "Ray", "Mae", "Jay", "Lyn", "Rae", "Kai", "Joy"];

const MARRIED: &[&str] = &[
    "{A} and his wife {B} attended the ceremony in Boston.",
    "{A} married his partner {B} in 1999.",
    "{A} celebrated a wedding anniversary with {B}.",
    "{B}, who is married to {A}, spoke at the event.",
    "{A} and her husband {B} bought a home near Denver.",
    "{A} exchanged wedding vows with {B} last spring.",
];
const SIBLING: &[&str] = &[
    "{A} and his brother {B} grew up in Austin.",
    "{A} and her sister {B} founded the company together.",
    "{B} is the younger sibling of {A}.",
];
const AMBIGUOUS: &[&str] = &[
    "{A} met {B} at the Chicago conference.",
    "{A} appeared on stage with {B}.",
    "{A} praised {B} during the interview.",
    "{A} worked with {B} for a decade.",
];
const FILLER: &[&str] = &[
    "The committee approved the budget after a long debate.",
    "Local officials announced new infrastructure plans.",
    "The weather stayed unseasonably warm through the week.",
    "Analysts expect the trend to continue next quarter.",
    "The museum opened a new exhibition downtown.",
];

/// Sentence kinds per deck of 20: 8 married, 6 sibling, 3 ambiguous, 3 filler.
const DECK: &[u8] = &[0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3, 3];
const SENTENCES_PER_DOC: usize = 2;
/// Share of the planted pairs the (incomplete) KBs know, in percent.
const KB_PERCENT: usize = 60;

/// Documents in each workload's base corpus. `batch_run` has the paper's
/// Figure-2 pipeline do all the work on the largest; `serve_ingest` keeps it
/// small so per-document costs dominate an ack, not the O(graph) refresh.
pub fn corpus_docs(workload: &str) -> Option<usize> {
    match workload {
        "batch_run" => Some(4000),
        "serve_read" | "serve_mixed" => Some(2000),
        "serve_ingest" => Some(200),
        _ => None,
    }
}

/// Rows a new-couple document adds to `/healthz.total_rows`: the five it
/// posts (1 Sentence, 2 Mention, 2 EL) and the one MarriedCandidate derived.
pub const ROWS_PER_INGEST_DOC: u64 = 6;

fn person(idx: usize) -> String {
    let first = FIRST[idx % FIRST.len()];
    let last = LAST[(idx / FIRST.len()) % LAST.len()];
    match idx / (FIRST.len() * LAST.len()) {
        0 => format!("{first} {last}"),
        g => format!("{first} {} {last}", MIDDLE[(g - 1) % MIDDLE.len()]),
    }
}

fn fill(template: &str, a: &str, b: &str) -> String {
    template.replace("{A}", a).replace("{B}", b)
}

pub struct Corpus {
    /// `(s, content)`.
    pub sentences: Vec<(u64, String)>,
    /// `(s, m, mtext)`; EL maps each `m` to the same text.
    pub mentions: Vec<(u64, u64, String)>,
    /// KB pairs, both directions, as the program's `Married`/`Siblings`.
    pub married_kb: Vec<(String, String)>,
    pub siblings_kb: Vec<(String, String)>,
    /// Mention pairs whose sentence expresses marriage.
    pub truth: Vec<(u64, u64)>,
    /// One line of raw text per document (the NLP layer's input).
    pub raw_docs: Vec<String>,
}

impl Corpus {
    pub fn generate(seed: u64, docs: usize) -> Corpus {
        assert!(docs > 0, "a corpus needs at least one document");
        let mut rng = Rng::new(seed);
        let pairs = (docs / 4).max(10);
        assert!(
            4 * pairs <= FIRST.len() * LAST.len() * (MIDDLE.len() + 1),
            "name pool too small for {docs} documents"
        );
        let mut people: Vec<String> = (0..4 * pairs).map(person).collect();
        rng.shuffle(&mut people);
        let married: Vec<(&str, &str)> = (0..pairs)
            .map(|i| (people[2 * i].as_str(), people[2 * i + 1].as_str()))
            .collect();
        let siblings: Vec<(&str, &str)> = (pairs..2 * pairs)
            .map(|i| (people[2 * i].as_str(), people[2 * i + 1].as_str()))
            .collect();
        let both_ways = |known: &[(&str, &str)]| -> Vec<(String, String)> {
            let n = known.len() * KB_PERCENT / 100;
            let mut out = Vec::with_capacity(2 * n);
            out.extend(
                known[..n]
                    .iter()
                    .map(|(a, b)| (a.to_string(), b.to_string())),
            );
            out.extend(
                known[..n]
                    .iter()
                    .map(|(a, b)| (b.to_string(), a.to_string())),
            );
            out
        };

        let total = docs * SENTENCES_PER_DOC;
        let mut kinds: Vec<u8> = (0..total).map(|i| DECK[i % DECK.len()]).collect();
        rng.shuffle(&mut kinds);

        let mut corpus = Corpus {
            sentences: Vec::with_capacity(total),
            mentions: Vec::new(),
            married_kb: both_ways(&married),
            siblings_kb: both_ways(&siblings),
            truth: Vec::new(),
            raw_docs: Vec::with_capacity(docs),
        };
        // Per-kind counters walk pairs and templates round-robin, so every
        // pair and template is used equally often whatever the seed.
        let mut used = [0usize; 4];
        let mut raw = String::new();
        for (sid, kind) in kinds.iter().enumerate() {
            let k = *kind as usize;
            let n = used[k];
            used[k] += 1;
            let pair = match k {
                0 => Some(married[n % pairs]),
                1 => Some(siblings[n % pairs]),
                2 => {
                    let a = rng.below(people.len());
                    let b = (a + 1 + rng.below(people.len() - 1)) % people.len();
                    Some((people[a].as_str(), people[b].as_str()))
                }
                _ => None,
            };
            let templates = [MARRIED, SIBLING, AMBIGUOUS, FILLER][k];
            let template = templates[(n / pairs + n) % templates.len()];
            let text = match pair {
                Some((a, b)) => {
                    let m = corpus.mentions.len() as u64;
                    corpus.mentions.push((sid as u64, m, a.to_string()));
                    corpus.mentions.push((sid as u64, m + 1, b.to_string()));
                    if k == 0 {
                        corpus.truth.push((m, m + 1));
                    }
                    fill(template, a, b)
                }
                None => template.to_string(),
            };
            if !raw.is_empty() {
                raw.push(' ');
            }
            raw.push_str(&text);
            corpus.sentences.push((sid as u64, text));
            if (sid + 1) % SENTENCES_PER_DOC == 0 {
                corpus.raw_docs.push(std::mem::take(&mut raw));
            }
        }
        corpus
    }

    /// Candidates the program will derive: one per two-mention sentence.
    pub fn candidates(&self) -> u64 {
        self.mentions.len() as u64 / 2
    }

    /// `(file name, contents)` of everything `deepdive run --data` reads,
    /// plus the truth and the tracer's raw text.
    pub fn files(&self) -> Vec<(&'static str, String)> {
        let mut sentence = String::new();
        for (s, text) in &self.sentences {
            let _ = writeln!(sentence, "{s}\t{text}");
        }
        let mut mention = String::new();
        let mut el = String::new();
        for (s, m, text) in &self.mentions {
            let _ = writeln!(mention, "{s}\t{m}\t{text}");
            let _ = writeln!(el, "{m}\t{text}");
        }
        let pairs = |rows: &[(String, String)]| {
            let mut out = String::new();
            for (a, b) in rows {
                let _ = writeln!(out, "{a}\t{b}");
            }
            out
        };
        let mut truth = String::new();
        for (a, b) in &self.truth {
            let _ = writeln!(truth, "{a}\t{b}");
        }
        let mut raw = String::new();
        for doc in &self.raw_docs {
            let _ = writeln!(raw, "{doc}");
        }
        vec![
            ("Sentence.tsv", sentence),
            ("Mention.tsv", mention),
            ("EL.tsv", el),
            ("Married.tsv", pairs(&self.married_kb)),
            ("Siblings.tsv", pairs(&self.siblings_kb)),
            ("truth.tsv", truth),
            ("raw.txt", raw),
        ]
    }

    pub fn write(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for (name, text) in self.files() {
            std::fs::write(dir.join(name), text)?;
        }
        Ok(())
    }
}

/// One new-couple document a writer posts: a single married-template
/// sentence about two people the KB has never seen.
// `sid`, `m1` and `text` are read by ddbench-trace, which builds rows from
// them; ddbench only posts `body`.
#[allow(dead_code)]
pub struct IngestDoc {
    pub sid: u64,
    /// Mention id of the first spouse; the second's is the next.
    pub m1: u64,
    /// The spouses' names; each is unique to this document, so an indexed
    /// `/relations/Mention?mtext=` read of one finds exactly one row.
    pub names: [String; 2],
    pub text: String,
    /// `POST /documents` body.
    pub body: String,
}

/// Ids far above any corpus id; `index` is unique per run.
pub fn ingest_doc(index: u64) -> IngestDoc {
    let sid = 1_000_000_000 + index;
    let m1 = 2_000_000_000 + 2 * index;
    let m2 = m1 + 1;
    let a = format!("Ada{index} Newlywed");
    let b = format!("Ben{index} Newlywed");
    let text = fill(MARRIED[index as usize % MARRIED.len()], &a, &b);
    let body = format!(
        "{{\"rows\":{{\"Sentence\":[[{sid},\"{text}\"]],\
         \"Mention\":[[{sid},{m1},\"{a}\"],[{sid},{m2},\"{b}\"]],\
         \"EL\":[[{m1},\"{a}\"],[{m2},\"{b}\"]]}}}}"
    );
    IngestDoc {
        sid,
        m1,
        names: [a, b],
        text,
        body,
    }
}

pub fn mtext_path(name: &str) -> String {
    format!("/relations/Mention?mtext={}", name.replace(' ', "%20"))
}

/// What a read must answer for the run to count it correct.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    /// `total` is at least this (exactly this while no writer runs) and the
    /// page holds `min(limit, total - offset)` rows.
    Page { offset: u64, base_total: u64 },
    /// Exactly this many rows match the name.
    Name { total: u64 },
    /// Between 1 and this many marginals pass the threshold.
    Marginals { max_total: u64 },
}

#[derive(Clone, Debug)]
pub struct ReadReq {
    /// Microseconds after the step starts at which the request is due.
    pub due_us: u64,
    pub path: String,
    pub expect: Expect,
}

pub const PAGE_LIMIT: u64 = 100;

/// The `serve_read` mix at `rate` req/s for `count` requests, split
/// round-robin over `threads` generator threads: 40 % page reads at uniform
/// offsets, 20 % name lookups (index path), 40 % thresholded marginals.
pub fn read_schedule(
    rng: &mut Rng,
    corpus: &Corpus,
    rate: u64,
    count: u64,
    threads: usize,
) -> Vec<Vec<ReadReq>> {
    let mut names: BTreeMap<&str, u64> = BTreeMap::new();
    for (_, _, text) in &corpus.mentions {
        *names.entry(text).or_default() += 1;
    }
    let names: Vec<(&str, u64)> = names.into_iter().collect();
    let mentions = corpus.mentions.len() as u64;
    let mut out: Vec<Vec<ReadReq>> = (0..threads).map(|_| Vec::new()).collect();
    for i in 0..count {
        let (path, expect) = match rng.below(10) {
            0..=3 => {
                let offset = rng.below(mentions as usize) as u64;
                (
                    format!("/relations/Mention?offset={offset}&limit={PAGE_LIMIT}"),
                    Expect::Page {
                        offset,
                        base_total: mentions,
                    },
                )
            }
            4..=5 => {
                let (name, total) = names[rng.below(names.len())];
                (mtext_path(name), Expect::Name { total })
            }
            _ => (
                "/marginals/MarriedMentions?min_p=0.9".to_string(),
                Expect::Marginals {
                    max_total: corpus.candidates(),
                },
            ),
        };
        out[i as usize % threads].push(ReadReq {
            due_us: i * 1_000_000 / rate,
            path,
            expect,
        });
    }
    out
}

/// The durability check: every name of every posted document looked up,
/// twice over (so the tail percentile has four windows), at `rate` req/s.
pub fn verify_schedule(docs: &[IngestDoc], rate: u64, threads: usize) -> Vec<Vec<ReadReq>> {
    let mut out: Vec<Vec<ReadReq>> = (0..threads).map(|_| Vec::new()).collect();
    let names = docs.iter().flat_map(|d| &d.names);
    for (i, name) in names.clone().chain(names).enumerate() {
        out[i % threads].push(ReadReq {
            due_us: i as u64 * 1_000_000 / rate,
            path: mtext_path(name),
            expect: Expect::Name { total: 1 },
        });
    }
    out
}

/// FNV-1a over every generated byte, so "same seed, same inputs" is a
/// printed fact and not a hope.
pub struct InputHash(u64);

impl Default for InputHash {
    fn default() -> Self {
        InputHash(0xCBF2_9CE4_8422_2325)
    }
}

impl InputHash {
    pub fn update(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn corpus(&mut self, corpus: &Corpus) {
        for (name, text) in corpus.files() {
            self.update(name.as_bytes());
            self.update(text.as_bytes());
        }
    }

    pub fn schedule(&mut self, schedule: &[Vec<ReadReq>]) {
        for (thread, reqs) in schedule.iter().enumerate() {
            for r in reqs {
                self.update(format!("{thread}\t{}\t{}\n", r.due_us, r.path).as_bytes());
            }
        }
    }

    pub fn docs(&mut self, docs: impl Iterator<Item = IngestDoc>) {
        for d in docs {
            self.update(d.body.as_bytes());
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}
