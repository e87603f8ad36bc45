//! Familiarity-based ranking (§6 of the paper).
//!
//! Each surviving candidate is attributed to the developer who *introduced*
//! the unused-ness — the author of the first overwriting definition when one
//! exists (Fig. 8: the bug appears when author 2 commits line 239), or the
//! author of the definition itself for never-read values. That author is
//! scored with the DOK model against the defining file; candidates whose
//! responsible authors are *least* familiar rank first, since unfamiliar
//! developers are the ones most likely to have intercepted a data flow they
//! did not know about (§6).

use vc_familiarity::{
    DokModel,
    EaModel,
    FactorMask,
    Metrics, //
};
use vc_ir::Program;
use vc_vcs::{
    AuthorId,
    Repository, //
};

use crate::authorship::Attributed;

/// Which familiarity model drives the ranking.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FamiliarityModel {
    /// The degree-of-knowledge model (§6, the paper's choice).
    Dok(DokModel),
    /// The EA expertise model (§9.2's alternative): no developer
    /// participation needed, commit-kind weighted.
    Ea(EaModel),
}

/// Ranking configuration.
#[derive(Clone, Copy, Debug)]
pub struct RankConfig {
    /// Rank by familiarity; when false, detection order is kept
    /// (the "w/o Familiarity" ablation of Table 6).
    pub enabled: bool,
    /// Which DOK factors participate (Table 6: w/o AC, w/o DL, w/o FA).
    /// Ignored by the EA model.
    pub mask: FactorMask,
    /// The familiarity model.
    pub model: FamiliarityModel,
}

impl Default for RankConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            mask: FactorMask::ALL,
            model: FamiliarityModel::Dok(DokModel::PAPER),
        }
    }
}

impl RankConfig {
    /// DOK ranking with explicit weights.
    pub fn dok(model: DokModel) -> RankConfig {
        RankConfig {
            model: FamiliarityModel::Dok(model),
            ..RankConfig::default()
        }
    }

    /// EA ranking (§9.2).
    pub fn ea() -> RankConfig {
        RankConfig {
            model: FamiliarityModel::Ea(EaModel::default()),
            ..RankConfig::default()
        }
    }
}

/// A ranked finding.
#[derive(Clone, Debug)]
pub struct Ranked {
    /// The attributed candidate.
    pub item: Attributed,
    /// Familiarity score of the responsible author (lower = less familiar =
    /// higher priority). `None` when blame failed or the model produced a
    /// NaN score (counted as `rank.familiarity_nan`); such items sort last.
    pub familiarity: Option<f64>,
    /// The scored author.
    pub author: Option<AuthorId>,
}

/// The developer responsible for the unused definition: the author of the
/// first overwriting definition when the value was overwritten, otherwise
/// the author of the definition line itself.
fn responsible_author(prog: &Program, repo: &Repository, item: &Attributed) -> Option<AuthorId> {
    for span in item.candidate.overwriters.iter() {
        if span.is_synthetic() {
            continue;
        }
        let file = prog.source.name(span.file);
        if let Some(a) = repo.blame_author(file, span.line()) {
            return Some(a);
        }
    }
    item.def_author
}

/// Scores and sorts candidates by ascending familiarity.
///
/// The sort is stable: equal scores keep detection order, so re-running the
/// pipeline yields identical reports.
pub fn rank(
    prog: &Program,
    repo: &Repository,
    config: &RankConfig,
    items: Vec<Attributed>,
) -> Vec<Ranked> {
    let mut out: Vec<Ranked> = items
        .into_iter()
        .map(|item| {
            let author = responsible_author(prog, repo, &item);
            let familiarity = author.and_then(|a| {
                let file = prog.source.name(item.candidate.span.file);
                let score = match &config.model {
                    FamiliarityModel::Dok(model) => {
                        let m = Metrics::compute(repo, file, a);
                        model.score_masked(&m, config.mask)
                    }
                    FamiliarityModel::Ea(model) => model.score(repo, file, a),
                };
                if score.is_nan() {
                    // Pathological weights (e.g. a fitted model fed
                    // degenerate data) can produce NaN; comparing NaN as
                    // `Equal` would scramble the sort, so treat the score
                    // as unknown — such items sort last, like blame
                    // failures.
                    vc_obs::counter_inc(vc_obs::names::RANK_FAMILIARITY_NAN);
                    return None;
                }
                Some(score)
            });
            if let Some(f) = familiarity {
                // Scores are recorded as milli-units so the integer
                // histogram keeps three decimal places; negative scores
                // (possible under ablated factor masks) floor at zero.
                vc_obs::observe(
                    vc_obs::names::RANK_DOK_SCORE_MILLI,
                    (f.max(0.0) * 1000.0).round() as u64,
                );
            }
            Ranked {
                item,
                familiarity,
                author,
            }
        })
        .collect();
    if config.enabled {
        out.sort_by(|a, b| match (a.familiarity, b.familiarity) {
            // Scores are NaN-free by construction (NaN maps to `None`
            // above), so `total_cmp` only serves as a belt-and-braces
            // total order here.
            (Some(x), Some(y)) => x.total_cmp(&y),
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (None, None) => std::cmp::Ordering::Equal,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        authorship::AuthorshipCtx,
        detect::{
            detect_program,
            DetectConfig, //
        },
    };
    use vc_vcs::FileWrite;

    #[test]
    fn ranking_is_a_permutation_and_sorted() {
        // Two files: one authored by a newcomer (1 commit), one by a veteran
        // with many commits. The newcomer's finding must rank first.
        let src_a = "void fa(void) {\nint x = 1;\nx = 2;\nuse(x);\n}\n";
        let src_b = "void fb(void) {\nint y = 1;\ny = 2;\nuse(y);\n}\n";
        let prog = Program::build(&[("vet.c", src_a), ("new.c", src_b)], &[]).unwrap();
        let mut repo = Repository::new();
        let vet = repo.add_author("veteran");
        let newbie = repo.add_author("newcomer");
        repo.commit(
            vet,
            1,
            "init vet",
            vec![FileWrite {
                path: "vet.c".into(),
                content: src_a.into(),
            }],
        );
        // Many veteran deliveries to vet.c.
        for i in 0..20 {
            repo.commit(
                vet,
                2 + i,
                "work",
                vec![FileWrite {
                    path: "vet.c".into(),
                    content: format!("{src_a}// rev {i}\n"),
                }],
            );
        }
        repo.commit(
            newbie,
            100,
            "first contribution",
            vec![FileWrite {
                path: "new.c".into(),
                content: src_b.into(),
            }],
        );

        let cands = detect_program(&prog, DetectConfig::default());
        let sites = crate::candidate::CallSites::all(&prog);
        let attributed = AuthorshipCtx::new(&prog, &repo, &sites).attribute_all(cands);
        let n = attributed.len();
        assert_eq!(n, 2);
        let ranked = rank(&prog, &repo, &RankConfig::default(), attributed);
        assert_eq!(ranked.len(), n, "ranking must be a permutation");
        assert_eq!(ranked[0].author, Some(newbie), "least familiar first");
        let f0 = ranked[0].familiarity.unwrap();
        let f1 = ranked[1].familiarity.unwrap();
        assert!(f0 <= f1);
    }

    #[test]
    fn nan_scores_sort_last_and_are_counted() {
        // A pathologically fitted model (NaN intercept) scores every author
        // as NaN. Those scores must degrade to `None` familiarity (sorting
        // last, like blame failures), not silently scramble the order.
        let src_a = "void fa(void) {\nint x = 1;\nx = 2;\nuse(x);\n}\n";
        let src_b = "void fb(void) {\nint y = 1;\ny = 2;\nuse(y);\n}\n";
        let prog = Program::build(&[("a.c", src_a), ("b.c", src_b)], &[]).unwrap();
        let mut repo = Repository::new();
        let dev = repo.add_author("dev");
        let other = repo.add_author("other");
        repo.commit(
            dev,
            1,
            "init",
            vec![
                FileWrite {
                    path: "a.c".into(),
                    content: src_a.into(),
                },
                FileWrite {
                    path: "b.c".into(),
                    content: src_b.into(),
                },
            ],
        );
        // `other` rewrites only a.c's overwriting line, so a.c's finding is
        // cross-scope and ranked against a real history.
        repo.commit(
            other,
            2,
            "rework",
            vec![FileWrite {
                path: "a.c".into(),
                content: src_a.replace("x = 2;", "x = 2; "),
            }],
        );

        let cands = detect_program(&prog, DetectConfig::default());
        let sites = crate::candidate::CallSites::all(&prog);
        let attributed = AuthorshipCtx::new(&prog, &repo, &sites).attribute_all(cands);
        assert_eq!(attributed.len(), 2);
        let order: Vec<String> = attributed
            .iter()
            .map(|a| a.candidate.var_name.to_string())
            .collect();

        let bad = vc_familiarity::DokModel {
            alpha0: f64::NAN,
            ..vc_familiarity::DokModel::PAPER
        };
        let obs = vc_obs::ObsSession::new();
        let _g = obs.install();
        let ranked = rank(&prog, &repo, &RankConfig::dok(bad), attributed);
        assert_eq!(ranked.len(), 2, "ranking must stay a permutation");
        assert!(
            ranked.iter().all(|r| r.familiarity.is_none()),
            "NaN scores degrade to None"
        );
        // All-None comparisons are Equal, so the stable sort keeps
        // detection order instead of scrambling it.
        let ranked_order: Vec<String> = ranked
            .iter()
            .map(|r| r.item.candidate.var_name.to_string())
            .collect();
        assert_eq!(order, ranked_order);
        assert_eq!(obs.registry.counter(vc_obs::names::RANK_FAMILIARITY_NAN), 2);
    }

    #[test]
    fn disabled_ranking_keeps_detection_order() {
        let src = "void f(void) {\nint a = 1;\na = 2;\nint b = 3;\nb = 4;\nuse(a);\nuse(b);\n}\n";
        let prog = Program::build(&[("a.c", src)], &[]).unwrap();
        let mut repo = Repository::new();
        let dev = repo.add_author("dev");
        repo.commit(
            dev,
            1,
            "init",
            vec![FileWrite {
                path: "a.c".into(),
                content: src.into(),
            }],
        );
        let cands = detect_program(&prog, DetectConfig::default());
        let sites = crate::candidate::CallSites::all(&prog);
        let attributed = AuthorshipCtx::new(&prog, &repo, &sites).attribute_all(cands);
        let order: Vec<String> = attributed
            .iter()
            .map(|a| a.candidate.var_name.to_string())
            .collect();
        let config = RankConfig {
            enabled: false,
            ..Default::default()
        };
        let ranked = rank(&prog, &repo, &config, attributed);
        let ranked_order: Vec<String> = ranked
            .iter()
            .map(|r| r.item.candidate.var_name.to_string())
            .collect();
        assert_eq!(order, ranked_order);
    }
}
