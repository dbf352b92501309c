//! Seeded inputs: the benchmark's own generator, graph recipe and request
//! streams. Nothing here calls into the program, so a change to the
//! program's generators can never change what the benchmark feeds it.

/// SplitMix64: small, fast, and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }
}

/// Share of nodes placed on pendant chains (the `reecc-datasets` recipe).
const PERIPHERY_FRACTION: f64 = 0.15;
/// Holme–Kim triad-formation probability (the `reecc-datasets` recipe).
const TRIAD_PROBABILITY: f64 = 0.6;

/// An analog of the paper's social networks: a Holme–Kim core (preferential
/// attachment with triad formation) plus a periphery of pendant chains of
/// length 1 to 3. Connected and simple by construction.
pub fn social_graph(n: usize, m_attach: usize, rng: &mut Rng) -> Vec<(usize, usize)> {
    let periphery = (n as f64 * PERIPHERY_FRACTION) as usize;
    let core = n - periphery;
    assert!(core > m_attach + 1, "graph too small for its attachment count");
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); core];
    let mut ends: Vec<usize> = Vec::new();
    let mut edges = Vec::new();
    let mut connect = |a: usize, b: usize, adj: &mut Vec<Vec<usize>>, ends: &mut Vec<usize>| {
        adj[a].push(b);
        adj[b].push(a);
        ends.push(a);
        ends.push(b);
        edges.push((a, b));
    };
    let m0 = m_attach + 1;
    for u in 0..m0 {
        for v in u + 1..m0 {
            connect(u, v, &mut adj, &mut ends);
        }
    }
    for new in m0..core {
        let mut chosen: Vec<usize> = Vec::with_capacity(m_attach);
        let mut last_pa: Option<usize> = None;
        while chosen.len() < m_attach {
            let triad = last_pa.filter(|_| rng.unit() < TRIAD_PROBABILITY);
            let t = match triad {
                Some(p) => adj[p][rng.below(adj[p].len())],
                None => ends[rng.below(ends.len())],
            };
            if chosen.contains(&t) {
                continue;
            }
            if triad.is_none() {
                last_pa = Some(t);
            }
            chosen.push(t);
        }
        for t in chosen {
            connect(new, t, &mut adj, &mut ends);
        }
    }
    let mut next = core;
    while next < n {
        let len = (1 + rng.below(3)).min(n - next);
        let mut anchor = rng.below(core);
        for _ in 0..len {
            edges.push((anchor, next));
            anchor = next;
            next += 1;
        }
    }
    edges
}

/// The edge-list file for `edges`, and the label of each generator id:
/// lines in a seeded order, endpoints in a seeded orientation, and labels a
/// seeded permutation of `1..=n`, so the program's first-appearance
/// interning differs from generator ids.
pub fn edge_list_text(n: usize, edges: &[(usize, usize)], rng: &mut Rng) -> (String, Vec<u64>) {
    let mut label: Vec<u64> = (1..=n as u64).collect();
    rng.shuffle(&mut label);
    let mut lines: Vec<(usize, usize)> =
        edges.iter().map(|&(a, b)| if rng.below(2) == 0 { (a, b) } else { (b, a) }).collect();
    rng.shuffle(&mut lines);
    let mut text = String::with_capacity(lines.len() * 12);
    text.push_str("# benchmark analog graph\n");
    for (a, b) in lines {
        text.push_str(&format!("{} {}\n", label[a], label[b]));
    }
    (text, label)
}

/// Zipf(`s`) sampler over ranks `0..n`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 1..=n {
            acc += 1.0 / (r as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// `count` distinct node pairs that are not edges of the graph `has_edge`
/// describes, in seeded order.
pub fn non_edges(
    n: usize,
    count: usize,
    has_edge: impl Fn(usize, usize) -> bool,
    rng: &mut Rng,
) -> Vec<(usize, usize)> {
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let u = rng.below(n);
        let v = rng.below(n);
        if u == v || has_edge(u, v) {
            continue;
        }
        if seen.insert((u.min(v), u.max(v))) {
            out.push((u, v));
        }
    }
    out
}
