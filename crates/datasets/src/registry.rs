//! The dataset registry: every network the paper evaluates on, with its
//! published LCC statistics and a synthesis recipe.

use reecc_graph::generators::{holme_kim_varied, random_dense_small, with_pendant_periphery};
use reecc_graph::Graph;

/// Fraction of analog nodes placed on low-degree pendant chains.
///
/// Real scale-free networks have a heavy fringe of degree-1/2 nodes —
/// the nodes that realize large resistance eccentricities and give the
/// paper's distributions their scale and tail. Holme–Kim cores with
/// `m_attach ≥ 2` have no such nodes, so 15% of each analog is attached
/// as pendant chains of length ≤ 3.
const PERIPHERY_FRACTION: f64 = 0.15;

/// Published LCC statistics of the original dataset (paper Tables I–II).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaperStats {
    /// Nodes in the LCC.
    pub n: usize,
    /// Edges in the LCC.
    pub m: usize,
}

impl PaperStats {
    /// Average degree `2m/n` of the original dataset.
    pub fn average_degree(&self) -> f64 {
        2.0 * self.m as f64 / self.n as f64
    }
}

/// Experiment scale tier: how large the synthesized analog should be.
///
/// The topology recipe is identical across tiers; only the node count
/// changes, so shapes (distribution skew, who-wins orderings, scaling
/// trends) are preserved while absolute runtimes shrink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// CI-sized: a few hundred nodes; exact algorithms remain cheap.
    Ci,
    /// A few thousand nodes; exact algorithms feasible, sketches faster.
    Small,
    /// Tens of thousands of nodes; exact `O(n³)` infeasible — the regime
    /// where FASTQUERY's advantage shows (paper's mid Table II).
    Medium,
    /// The largest tier this harness runs (paper's asterisked networks,
    /// scaled down ~50×).
    Large,
}

impl Tier {
    /// Parse from the harness `--tier` flag.
    pub fn parse(text: &str) -> Option<Tier> {
        match text.to_ascii_lowercase().as_str() {
            "ci" => Some(Tier::Ci),
            "small" => Some(Tier::Small),
            "medium" => Some(Tier::Medium),
            "large" => Some(Tier::Large),
            _ => None,
        }
    }

    fn cap(&self) -> usize {
        match self {
            Tier::Ci => 400,
            Tier::Small => 3_000,
            Tier::Medium => 15_000,
            Tier::Large => 80_000,
        }
    }
}

/// Every network from the paper's experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Dataset {
    // Table I / Figure 2 networks.
    Politician,
    MusaeFr,
    Government,
    HepPh,
    // Table II additions.
    UnicodeLanguage,
    EmailUn,
    MusaeRu,
    Bitcoinotc,
    WikiVote,
    MusaeEngb,
    HepTh,
    CondMat,
    MusaeFacebook,
    Hu,
    Hr,
    Epinions,
    Delicious,
    FourSquare,
    YoutubeSnap,
    WikipediaGrowth,
    WebBaiduBaike,
    SocOrkut,
    LiveJournal,
    // Figure 8 tiny social networks.
    Kangaroo,
    Rhesus,
    Cloister,
    Tribes,
}

impl Dataset {
    /// All datasets in paper order.
    pub fn all() -> &'static [Dataset] {
        use Dataset::*;
        &[
            UnicodeLanguage,
            EmailUn,
            MusaeRu,
            Bitcoinotc,
            Politician,
            Government,
            WikiVote,
            MusaeEngb,
            HepTh,
            MusaeFr,
            HepPh,
            CondMat,
            MusaeFacebook,
            Hu,
            Hr,
            Epinions,
            Delicious,
            FourSquare,
            YoutubeSnap,
            WikipediaGrowth,
            WebBaiduBaike,
            SocOrkut,
            LiveJournal,
            Kangaroo,
            Rhesus,
            Cloister,
            Tribes,
        ]
    }

    /// The four Table-I / Figure-2 networks.
    pub fn table1() -> &'static [Dataset] {
        use Dataset::*;
        &[Politician, MusaeFr, Government, HepPh]
    }

    /// The four tiny Figure-8 networks (OPT is enumerable).
    pub fn tiny_social() -> &'static [Dataset] {
        use Dataset::*;
        &[Kangaroo, Rhesus, Cloister, Tribes]
    }

    /// The four largest (asterisked) networks used in Figure 7 / Table III.
    pub fn huge() -> &'static [Dataset] {
        use Dataset::*;
        &[WikipediaGrowth, WebBaiduBaike, SocOrkut, LiveJournal]
    }

    /// Canonical lowercase name (harness `--dataset` flag).
    pub fn name(&self) -> &'static str {
        use Dataset::*;
        match self {
            Politician => "politician",
            MusaeFr => "musae-fr",
            Government => "government",
            HepPh => "hepph",
            UnicodeLanguage => "unicode-language",
            EmailUn => "emailun",
            MusaeRu => "musae-ru",
            Bitcoinotc => "bitcoinotc",
            WikiVote => "wiki-vote",
            MusaeEngb => "musae-engb",
            HepTh => "hepth",
            CondMat => "cond-mat",
            MusaeFacebook => "musae-facebook",
            Hu => "hu",
            Hr => "hr",
            Epinions => "epinions",
            Delicious => "delicious",
            FourSquare => "foursquare",
            YoutubeSnap => "youtube-snap",
            WikipediaGrowth => "wikipedia-growth",
            WebBaiduBaike => "web-baidu-baike",
            SocOrkut => "soc-orkut",
            LiveJournal => "live-journal",
            Kangaroo => "kangaroo",
            Rhesus => "rhesus",
            Cloister => "cloister",
            Tribes => "tribes",
        }
    }

    /// Find a dataset by its canonical name.
    pub fn by_name(name: &str) -> Option<Dataset> {
        Dataset::all().iter().copied().find(|d| d.name() == name.to_ascii_lowercase())
    }

    /// Published LCC statistics (paper Tables I–II; tiny networks §VIII-C2).
    pub fn paper_stats(&self) -> PaperStats {
        use Dataset::*;
        let (n, m) = match self {
            UnicodeLanguage => (614, 1_252),
            EmailUn => (1_133, 5_451),
            MusaeRu => (4_385, 37_304),
            Bitcoinotc => (5_875, 35_587),
            Politician => (5_908, 41_706),
            Government => (7_057, 89_429),
            WikiVote => (7_066, 103_663),
            MusaeEngb => (7_126, 35_324),
            HepTh => (8_361, 15_751),
            MusaeFr => (6_549, 112_666),
            HepPh => (11_204, 117_619),
            CondMat => (13_861, 44_619),
            MusaeFacebook => (22_470, 170_823),
            Hu => (47_538, 222_887),
            Hr => (54_573, 498_202),
            Epinions => (75_877, 508_836),
            Delicious => (536_108, 1_365_961),
            FourSquare => (639_014, 3_214_986),
            YoutubeSnap => (1_134_890, 2_987_624),
            WikipediaGrowth => (1_870_521, 39_953_004),
            WebBaiduBaike => (2_107_689, 17_758_243),
            SocOrkut => (2_997_166, 106_349_209),
            LiveJournal => (4_033_137, 27_933_062),
            Kangaroo => (17, 91),
            Rhesus => (16, 111),
            Cloister => (18, 189),
            Tribes => (16, 58),
        };
        PaperStats { n, m }
    }

    /// Whether this is one of the tiny exact-OPT networks.
    pub fn is_tiny(&self) -> bool {
        Dataset::tiny_social().contains(self)
    }

    /// Deterministic per-dataset seed (FNV-1a over the name).
    pub fn seed(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.name().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Number of nodes the analog uses at a given tier.
    pub fn analog_n(&self, tier: Tier) -> usize {
        if self.is_tiny() {
            return self.paper_stats().n;
        }
        self.paper_stats().n.min(tier.cap())
    }

    /// Synthesize the analog graph for a tier.
    ///
    /// * Tiny social networks → [`random_dense_small`] with the exact
    ///   paper `n`, `m` (any tier).
    /// * Everything else → a [`holme_kim_varied`] core with mean
    ///   attachment count `max(1, round(d_avg / 2))` (so the analog
    ///   matches the paper's average degree) and triad probability `0.6`
    ///   (scale-free *and* clustered, the regime §IV-B analyzes), plus
    ///   15 % of the tier's node count on pendant chains
    ///   ([`with_pendant_periphery`]).
    pub fn synthesize(&self, tier: Tier) -> Graph {
        let stats = self.paper_stats();
        if self.is_tiny() {
            // The original tiny datasets are directed/weighted multigraphs
            // (e.g. Cloister's 189 directed contacts exceed C(18,2) = 153
            // simple edges). Clamp to a simple graph while keeping at
            // least 10 missing edges so the Figure-8 optimizers have
            // candidates.
            let max_m = stats.n * (stats.n - 1) / 2;
            let m = stats.m.min(max_m.saturating_sub(10));
            return random_dense_small(stats.n, m, self.seed());
        }
        let n = self.analog_n(tier);
        let periphery = ((n as f64 * PERIPHERY_FRACTION) as usize).min(n.saturating_sub(8));
        let n_core = n - periphery;
        let m_attach = ((stats.average_degree() / 2.0).round() as usize).max(1).min(n_core - 1);
        let core = holme_kim_varied(n_core, m_attach, 0.6, self.seed());
        with_pendant_periphery(&core, periphery, 3, self.seed() ^ 0x9e37_79b9_7f4a_7c15)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reecc_graph::stats::average_clustering;
    use reecc_graph::traversal::is_connected;

    #[test]
    fn registry_is_complete_and_named() {
        assert_eq!(Dataset::all().len(), 27);
        for d in Dataset::all() {
            assert_eq!(Dataset::by_name(d.name()), Some(*d));
        }
        assert_eq!(Dataset::by_name("nope"), None);
        assert_eq!(Dataset::by_name("POLITICIAN"), Some(Dataset::Politician));
    }

    #[test]
    fn paper_stats_match_table2_rows() {
        let s = Dataset::LiveJournal.paper_stats();
        assert_eq!(s.n, 4_033_137);
        assert_eq!(s.m, 27_933_062);
        let p = Dataset::Politician.paper_stats();
        assert!((p.average_degree() - 14.12).abs() < 0.1);
    }

    #[test]
    fn tiny_networks_use_exact_sizes() {
        for d in Dataset::tiny_social() {
            let g = d.synthesize(Tier::Ci);
            let stats = d.paper_stats();
            let max_m = stats.n * (stats.n - 1) / 2;
            assert_eq!(g.node_count(), stats.n, "{}", d.name());
            assert_eq!(g.edge_count(), stats.m.min(max_m - 10), "{}", d.name());
            assert!(is_connected(&g));
            // Optimizers need candidate non-edges.
            assert!(g.non_edges().len() >= 10, "{}", d.name());
        }
    }

    #[test]
    fn analogs_are_connected_scale_free_and_clustered() {
        let g = Dataset::Politician.synthesize(Tier::Ci);
        assert!(is_connected(&g));
        assert_eq!(g.node_count(), 400);
        // Holme-Kim with p_triad 0.6 should show real clustering.
        assert!(average_clustering(&g) > 0.1, "clustering {}", average_clustering(&g));
        // Average degree within 2x of the paper (small n truncates hubs).
        let target = Dataset::Politician.paper_stats().average_degree();
        let got = g.average_degree();
        assert!(got > target * 0.5 && got < target * 1.5, "avg degree {got} vs {target}");
    }

    #[test]
    fn tiers_scale_node_counts() {
        let d = Dataset::HepPh;
        assert_eq!(d.analog_n(Tier::Ci), 400);
        assert_eq!(d.analog_n(Tier::Small), 3_000);
        assert_eq!(d.analog_n(Tier::Medium), 11_204); // paper n < tier cap
        let small = Dataset::UnicodeLanguage;
        assert_eq!(small.analog_n(Tier::Large), 614); // never exceeds paper n
    }

    #[test]
    fn synthesis_is_deterministic() {
        let a = Dataset::Government.synthesize(Tier::Ci);
        let b = Dataset::Government.synthesize(Tier::Ci);
        assert_eq!(a.edges(), b.edges());
        let c = Dataset::Politician.synthesize(Tier::Ci);
        assert_ne!(a.edges(), c.edges());
    }

    #[test]
    fn tier_parsing() {
        assert_eq!(Tier::parse("ci"), Some(Tier::Ci));
        assert_eq!(Tier::parse("MEDIUM"), Some(Tier::Medium));
        assert_eq!(Tier::parse("huge"), None);
    }
}
