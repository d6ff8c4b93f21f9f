//! Benchmark inputs: the generated datasets, the seeded query lists, and
//! the fingerprints that pin both.
//!
//! The program under test only ever sees generated inputs. The datasets are
//! the generator's Table 1 presets (their content does not depend on
//! `--seed`); the query list does.

use ir2_datagen::{DatasetSpec, WordModel};
use ir2tree::model::{DistanceFirstQuery, SpatialObject};

/// Results requested per query.
pub const K: usize = 10;
/// Query keywords are drawn from frequency ranks `RANKS.0..RANKS.1`: common
/// enough that conjunctions have answers, rare enough to be selective.
pub const RANKS: (usize, usize) = (5, 125);

/// splitmix64: the directory carries its own generator because `rand` is a
/// dev-only dependency of `ir2-bench`.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2⁻⁴⁰ for the
    /// ranges used here).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// FNV-1a over 64 bits, fed whole words and byte strings.
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }

    pub fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    /// Length-prefixed, so ("ab", "c") and ("a", "bc") differ.
    pub fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for &b in s.as_bytes() {
            self.byte(b);
        }
    }

    pub fn object(&mut self, o: &SpatialObject<2>) {
        self.word(o.id);
        self.word(o.point.coord(0).to_bits());
        self.word(o.point.coord(1).to_bits());
        self.text(&o.text);
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

pub fn fingerprint_objects<'a>(objects: impl IntoIterator<Item = &'a SpatialObject<2>>) -> u64 {
    let mut fp = Fingerprint::new();
    for o in objects {
        fp.object(o);
    }
    fp.finish()
}

pub fn fingerprint_queries(queries: &[DistanceFirstQuery<2>]) -> u64 {
    let mut fp = Fingerprint::new();
    for q in queries {
        fp.word(q.point.coord(0).to_bits());
        fp.word(q.point.coord(1).to_bits());
        fp.word(q.keywords.len() as u64);
        for w in &q.keywords {
            fp.text(w);
        }
        fp.word(q.k as u64);
    }
    fp.finish()
}

/// Bytes of the objects as tab-separated rows (`id x y text`): the user
/// data that `space_amp` divides by.
pub fn tsv_bytes(objects: &[SpatialObject<2>]) -> u64 {
    objects
        .iter()
        .map(|o| {
            format!("{}\t{}\t{}\t", o.id, o.point.coord(0), o.point.coord(1)).len() as u64
                + o.text.len() as u64
                + 1
        })
        .sum()
}

/// The first `spec.num_objects` objects of the generator's stream, plus the
/// `extra` that follow them (fresh objects for inserts, ids continuing).
pub fn generate(
    spec: &DatasetSpec,
    extra: usize,
) -> (Vec<SpatialObject<2>>, Vec<SpatialObject<2>>) {
    let mut longer = spec.clone();
    longer.num_objects += extra;
    let mut base: Vec<_> = longer.generate().collect();
    let tail = base.split_off(spec.num_objects);
    (base, tail)
}

/// The words of the query band, indexed by `rank - RANKS.0`. Built once:
/// `DatasetSpec::keyword_of_rank` rebuilds a `WordModel` (an alias table
/// over the whole vocabulary) on every call.
pub fn query_words(spec: &DatasetSpec) -> Vec<String> {
    let model = WordModel::new(spec.vocab_size, spec.zipf_s);
    (RANKS.0..RANKS.1).map(|rank| model.word(rank)).collect()
}

/// One query from the generator's stream: the point is a random dataset
/// object's location nudged by (+0.01, −0.01) so exact-distance ties stay
/// rare, with one to three distinct keywords (weights 1:2:1) of uniform
/// rank in the query band.
fn draw_query(
    rng: &mut SplitMix64,
    objects: &[SpatialObject<2>],
    words: &[String],
) -> DistanceFirstQuery<2> {
    let at = &objects[rng.below(objects.len())].point;
    let num_keywords = [1, 2, 2, 3][rng.below(4)];
    let mut picked: Vec<usize> = Vec::with_capacity(num_keywords);
    while picked.len() < num_keywords {
        let w = rng.below(words.len());
        if !picked.contains(&w) {
            picked.push(w);
        }
    }
    let keywords: Vec<&str> = picked.iter().map(|&w| words[w].as_str()).collect();
    DistanceFirstQuery::new([at.coord(0) + 0.01, at.coord(1) - 0.01], &keywords, K)
}

/// Candidates drawn per query kept. The pool must be large enough that its
/// share of whole-tree scans (3 % of draws, a third of all blocks read) is
/// itself steady from seed to seed.
const POOL_FACTOR: usize = 32;

/// `count` queries from `seed`, as a stratified sample with a
/// low-discrepancy order.
///
/// A query's cost is set almost entirely by how many keywords it has and
/// how many objects match them (`matches`): under ten matches and the
/// search scans the whole tree, at ~100 ms; thousands and it ends at ~1 ms.
/// Drawn plainly, the few expensive queries a seed happens to get decide
/// the mean, and 1000 queries differ by ±8 % from seed to seed. So
/// `POOL_FACTOR × count` candidates are drawn and sorted by (keyword count,
/// match count), and every `POOL_FACTOR`-th is kept: the kept list has the
/// pool's cost profile whatever the seed, while points and keywords stay
/// random. The list is then ordered by bit-reversed rank, so that every
/// prefix — the counted rounds of a write workload, the traced sample —
/// spans the profile evenly too.
pub fn queries(
    objects: &[SpatialObject<2>],
    words: &[String],
    seed: u64,
    count: usize,
    matches: impl Fn(&DistanceFirstQuery<2>) -> usize,
) -> Vec<DistanceFirstQuery<2>> {
    assert!(
        count.is_power_of_two(),
        "bit-reversed order needs 2^n queries"
    );
    let mut rng = SplitMix64::new(seed);
    let mut pool: Vec<((usize, usize, usize), DistanceFirstQuery<2>)> = (0..count * POOL_FACTOR)
        .map(|drawn| {
            let q = draw_query(&mut rng, objects, words);
            ((q.keywords.len(), matches(&q), drawn), q)
        })
        .collect();
    pool.sort_by_key(|(key, _)| *key);
    let mut kept: Vec<Option<DistanceFirstQuery<2>>> = pool
        .into_iter()
        .skip(POOL_FACTOR / 2)
        .step_by(POOL_FACTOR)
        .map(|(_, q)| Some(q))
        .collect();
    let bits = count.trailing_zeros();
    (0..count)
        .map(|i| {
            let rank = if bits == 0 {
                0
            } else {
                i.reverse_bits() >> (usize::BITS - bits)
            };
            kept[rank].take().expect("bit reversal is a permutation")
        })
        .collect()
}

/// Expected fingerprints of the full-scale datasets, keyed by (preset
/// name, object count incl. the insert tail). A change to `ir2-datagen`
/// that alters a dataset changes every number measured on it, so the run
/// aborts instead of reporting them under the old name.
const DATASET_PINS: [(&str, usize, u64); 2] = [
    ("Hotels", 129_319 + INSERT_TAIL, 0xd381_2bd8_7785_76fc),
    ("Restaurants", 456_288 + INSERT_TAIL, 0x4d64_d67c_2bb1_82fa),
];

/// Expected fingerprints of the seed-1 query lists, keyed by (preset name,
/// dataset objects, queries).
const QUERY_PINS: [(&str, usize, usize, u64); 3] = [
    ("Hotels", 129_319, 1024, 0x7a0f_f062_4b45_5743),
    ("Hotels", 129_319, 4096, 0xb6ac_2205_15fd_ea60),
    ("Restaurants", 456_288, 1024, 0xf80c_6792_ced1_163b),
];

/// Objects generated past the base dataset, for inserts.
pub const INSERT_TAIL: usize = 4096;

fn check(kind: &str, pinned: Option<u64>, actual: u64) -> Result<(), String> {
    match pinned {
        Some(expected) if expected != actual => Err(format!(
            "{kind} fingerprint is {actual:#018x}, pinned {expected:#018x}: the generated \
             inputs changed, so results are not comparable with earlier runs. If the change \
             is intended, update the pins in inputs.rs and re-baseline."
        )),
        _ => Ok(()),
    }
}

pub fn check_dataset_pin(name: &str, count: usize, actual: u64) -> Result<(), String> {
    let pinned = DATASET_PINS
        .iter()
        .find(|(n, c, _)| *n == name && *c == count)
        .map(|p| p.2);
    check(&format!("{name} dataset ({count} objects)"), pinned, actual)
}

pub fn check_query_pin(
    name: &str,
    objects: usize,
    seed: u64,
    count: usize,
    actual: u64,
) -> Result<(), String> {
    let pinned = QUERY_PINS
        .iter()
        .find(|p| seed == 1 && (p.0, p.1, p.2) == (name, objects, count))
        .map(|p| p.3);
    check(
        &format!("{name} query list (seed {seed}, {count} queries)"),
        pinned,
        actual,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (DatasetSpec, Vec<SpatialObject<2>>, Vec<SpatialObject<2>>) {
        let spec = DatasetSpec::hotels().scaled(0.002);
        let (base, tail) = generate(&spec, 5);
        (spec, base, tail)
    }

    #[test]
    fn insert_tail_continues_the_stream_without_disturbing_the_base() {
        let (spec, base, tail) = small();
        assert_eq!(base.len(), spec.num_objects);
        assert_eq!(base, spec.generate().collect::<Vec<_>>());
        assert_eq!(tail.len(), 5);
        assert_eq!(tail[0].id, spec.num_objects as u64);
    }

    #[test]
    fn same_seed_same_queries_and_fingerprints_tell_seeds_apart() {
        let (spec, base, _) = small();
        let words = query_words(&spec);
        assert_eq!(words.len(), RANKS.1 - RANKS.0);
        assert_eq!(words[0], spec.keyword_of_rank(RANKS.0));
        // Any deterministic stand-in for the match count will do here.
        let cost = |q: &DistanceFirstQuery<2>| q.keywords.iter().map(String::len).sum();
        let a = queries(&base, &words, 1, 64, cost);
        let b = queries(&base, &words, 1, 64, cost);
        let c = queries(&base, &words, 2, 64, cost);
        assert_eq!(a.len(), 64);
        assert_eq!(a, b);
        assert_eq!(fingerprint_queries(&a), fingerprint_queries(&b));
        assert_ne!(fingerprint_queries(&a), fingerprint_queries(&c));
        for q in &a {
            assert!((1..=3).contains(&q.keywords.len()));
            assert_eq!(q.k, K);
        }
    }

    #[test]
    fn every_prefix_of_the_query_list_spans_the_cost_profile() {
        let (spec, base, _) = small();
        let words = query_words(&spec);
        let cost = |q: &DistanceFirstQuery<2>| q.keywords.iter().map(String::len).sum::<usize>();
        let list = queries(&base, &words, 3, 256, cost);
        let mean = |qs: &[DistanceFirstQuery<2>]| {
            qs.iter().map(cost).sum::<usize>() as f64 / qs.len() as f64
        };
        let whole = mean(&list);
        for prefix in [16, 32, 100, 200] {
            let part = mean(&list[..prefix]);
            assert!(
                (part - whole).abs() / whole < 0.08,
                "prefix {prefix}: mean cost {part} against {whole}"
            );
        }
    }

    #[test]
    fn fingerprint_sees_every_field() {
        let (_, base, _) = small();
        let fp = fingerprint_objects(&base);
        for edit in 0..3 {
            let mut changed = base.clone();
            let o = &mut changed[3];
            match edit {
                0 => o.id += 1,
                1 => {
                    *o = SpatialObject::new(
                        o.id,
                        [o.point.coord(0) + 1e-9, o.point.coord(1)],
                        o.text.clone(),
                    )
                }
                _ => o.text.push('x'),
            }
            assert_ne!(fingerprint_objects(&changed), fp, "edit {edit} went unseen");
        }
    }

    #[test]
    fn pin_mismatch_is_an_error_and_unpinned_inputs_pass() {
        assert!(check("x", Some(1), 2).unwrap_err().contains("pinned"));
        assert!(check("x", Some(2), 2).is_ok());
        assert!(check("x", None, 2).is_ok());
        assert!(check_dataset_pin("Hotels", 17, 99).is_ok());
        assert!(check_query_pin("Hotels", 129_319, 2, 1024, 99).is_ok());
        assert!(check_query_pin("Hotels", 1293, 1, 1024, 99).is_ok());
    }
}
