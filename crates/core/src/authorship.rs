//! Authorship lookup: deciding whether an unused definition crosses author
//! scopes (§4.2 of the paper).
//!
//! The rules, per scenario:
//!
//! 1. **Unused return value** — compare the call-site author `D` against the
//!    authors `B₁, B₂, …` of every `return` statement in the callee; the
//!    candidate is cross-scope when *all* `Bᵢ` differ from `D`. A library
//!    callee (not defined in the project) counts as a different author.
//! 2. **Overwritten/unused argument** — compare each call-site author `C`
//!    against the author `B` of the parameter declaration, or against the
//!    author `D` of the in-function overwrite when one exists.
//! 3. **Overwritten definition** — compare the definition's author against
//!    the authors of the overwriting definitions on all successor paths; all
//!    must differ.

use vc_ir::{
    Program,
    Span, //
};
use vc_vcs::{
    AuthorId,
    Repository, //
};

use crate::candidate::{
    CallSites,
    Candidate,
    Scenario, //
};

/// A candidate with its authorship facts resolved.
#[derive(Clone, Debug)]
pub struct Attributed {
    /// The underlying candidate.
    pub candidate: Candidate,
    /// Author of the defining line, when blame succeeded.
    pub def_author: Option<AuthorId>,
    /// Authors on the other side of the boundary (overwriters, callee
    /// returns, or call sites, depending on scenario).
    pub counterpart_authors: Vec<AuthorId>,
    /// Whether the definition crosses author scopes.
    pub cross_scope: bool,
    /// Whether the blame data needed by the scenario rule was missing or
    /// partial. Unknown authorship degrades to *cross-scope* — the paper's
    /// conservative default for an unresolvable boundary (a library callee
    /// "counts as a different author") — rather than silently dropping the
    /// candidate. Counted as `harden.authorship_unknown`.
    pub authorship_unknown: bool,
}

/// Resolves authorship for candidates of a program against a repository.
pub struct AuthorshipCtx<'a> {
    /// The program under analysis.
    pub prog: &'a Program,
    /// The version-control history.
    pub repo: &'a Repository,
    /// Direct call sites, asked about every function a candidate's
    /// parameter scenario is about ([`CallSites::asked`]).
    call_sites: &'a CallSites<'a>,
}

impl<'a> AuthorshipCtx<'a> {
    /// A context over `call_sites`, which must have been asked about every
    /// candidate to attribute (checked in debug builds).
    pub fn new(prog: &'a Program, repo: &'a Repository, call_sites: &'a CallSites<'a>) -> Self {
        Self {
            prog,
            repo,
            call_sites,
        }
    }

    /// Blames a span against the repository.
    pub fn author_of(&self, span: Span) -> Option<AuthorId> {
        if span.is_synthetic() {
            return None;
        }
        let file = self.prog.source.name(span.file);
        self.repo.blame_author(file, span.line())
    }

    /// Applies the scenario rules to one candidate, which moves into the
    /// result.
    pub fn attribute(&self, cand: Candidate) -> Attributed {
        let def_author = self.author_of(cand.span);
        let (counterpart_authors, cross_scope, authorship_unknown) = match &cand.scenario {
            Scenario::RetVal { callees } => self.retval_rule(def_author, callees),
            Scenario::Param { .. } => self.param_rule(&cand, def_author),
            Scenario::Overwritten => self.overwritten_rule(&cand, def_author),
        };
        if authorship_unknown {
            vc_obs::counter_inc(vc_obs::names::HARDEN_AUTHORSHIP_UNKNOWN);
        }
        Attributed {
            candidate: cand,
            def_author,
            counterpart_authors,
            cross_scope,
            authorship_unknown,
        }
    }

    /// Scenario 1: call-site author vs. authors of the callee's returns.
    fn retval_rule(
        &self,
        def_author: Option<AuthorId>,
        callees: &[String],
    ) -> (Vec<AuthorId>, bool, bool) {
        let Some(d) = def_author else {
            // No blame for the call site: the boundary is unresolvable, so
            // keep the candidate on the conservative (cross-scope) side.
            return (Vec::new(), true, true);
        };
        let mut counterparts = Vec::new();
        let mut cross = false;
        let mut unknown = false;
        if callees.is_empty() {
            // Unresolvable indirect call: an analysis limitation, not a
            // blame gap — cannot establish the boundary.
            return (counterparts, false, false);
        }
        for callee in callees {
            match self.prog.func_by_name(callee) {
                Some(f) => {
                    let from = counterparts.len();
                    counterparts.extend(f.return_spans.iter().filter_map(|s| self.author_of(*s)));
                    let ret_authors = &counterparts[from..];
                    // All return authors must differ from the call-site
                    // author (checkAuthor of Fig. 4).
                    if !f.return_spans.is_empty() && ret_authors.is_empty() {
                        // The callee has returns but none of them blame:
                        // partial history, degrade to cross-scope.
                        cross = true;
                        unknown = true;
                    } else if !ret_authors.is_empty() && ret_authors.iter().all(|b| *b != d) {
                        cross = true;
                    }
                }
                None => {
                    // Library call: "we regard the author is different".
                    cross = true;
                }
            }
        }
        (counterparts, cross, unknown)
    }

    /// Scenario 2: call-site authors vs. the parameter's (or overwriter's)
    /// author.
    fn param_rule(
        &self,
        cand: &Candidate,
        def_author: Option<AuthorId>,
    ) -> (Vec<AuthorId>, bool, bool) {
        // `def_author` is the author of the parameter declaration line (B).
        // When the parameter is overwritten inside the function by D, the
        // paper compares D to the call-site author C instead.
        let inside = match cand
            .overwriters
            .iter()
            .filter_map(|s| self.author_of(*s))
            .next()
        {
            Some(d) => Some(d),
            None => def_author,
        };
        let Some(inside) = inside else {
            // Neither the overwriter nor the declaration blames: degrade to
            // cross-scope rather than dropping the candidate.
            return (Vec::new(), true, true);
        };
        let sites = self.call_sites.of(&self.prog.func(cand.func).name);
        let site_authors: Vec<AuthorId> = sites
            .iter()
            .filter_map(|cs| self.author_of(cs.span))
            .collect();
        if !sites.is_empty() && site_authors.is_empty() {
            // Callers exist but none of their lines blame.
            return (site_authors, true, true);
        }
        let cross = site_authors.iter().any(|c| *c != inside);
        (site_authors, cross, false)
    }

    /// Scenario 3: definition author vs. authors of all overwriters.
    fn overwritten_rule(
        &self,
        cand: &Candidate,
        def_author: Option<AuthorId>,
    ) -> (Vec<AuthorId>, bool, bool) {
        let over_authors: Vec<AuthorId> = cand
            .overwriters
            .iter()
            .filter_map(|s| self.author_of(*s))
            .collect();
        let Some(a) = def_author else {
            // Unknown definition author: conservative cross-scope.
            return (over_authors, true, true);
        };
        if !cand.overwriters.is_empty() && over_authors.is_empty() {
            // Overwriters exist but their blame is missing.
            return (over_authors, true, true);
        }
        let cross = !over_authors.is_empty() && over_authors.iter().all(|b| *b != a);
        (over_authors, cross, false)
    }

    /// Attributes a batch of candidates.
    pub fn attribute_all(&self, cands: Vec<Candidate>) -> Vec<Attributed> {
        cands.into_iter().map(|c| self.attribute(c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        candidate::CallSites,
        detect::{
            detect_program,
            DetectConfig, //
        },
    };
    use vc_vcs::FileWrite;

    /// Builds a program plus a history where `lines_by` maps 1-based line
    /// numbers to author indices; everything else belongs to author 0.
    fn setup(src: &str, authors: &[&str], lines_by: &[(u32, usize)]) -> (Program, Repository) {
        let prog = Program::build(&[("a.c", src)], &[]).unwrap();
        let mut repo = Repository::new();
        let ids: Vec<AuthorId> = authors.iter().map(|a| repo.add_author(*a)).collect();
        // Author 0 writes the whole file, then each listed line is rewritten
        // by its author (preserving content so the program stays identical:
        // we append a trailing space, which blame sees as a change).
        repo.commit(
            ids[0],
            1_000_000,
            "initial import",
            vec![FileWrite {
                path: "a.c".into(),
                content: src.to_string(),
            }],
        );
        let mut lines: Vec<String> = src.lines().map(str::to_string).collect();
        for (i, (line, author)) in lines_by.iter().enumerate() {
            let idx = (*line - 1) as usize;
            lines[idx] = format!("{} ", lines[idx].trim_end());
            let content = lines.join("\n") + "\n";
            repo.commit(
                ids[*author],
                2_000_000 + i as i64,
                format!("touch line {line}"),
                vec![FileWrite {
                    path: "a.c".into(),
                    content,
                }],
            );
        }
        (prog, repo)
    }

    fn attributed(prog: &Program, repo: &Repository) -> Vec<Attributed> {
        let cands = detect_program(prog, DetectConfig::default());
        let sites = CallSites::asked(prog, &cands);
        AuthorshipCtx::new(prog, repo, &sites).attribute_all(cands)
    }

    #[test]
    fn same_author_overwrite_is_not_cross_scope() {
        let (prog, repo) = setup(
            "void f(void) {\nint x = 1;\nx = 2;\nuse(x);\n}\n",
            &["alice"],
            &[],
        );
        let a = attributed(&prog, &repo);
        assert_eq!(a.len(), 1);
        assert!(!a[0].cross_scope);
    }

    #[test]
    fn different_author_overwrite_is_cross_scope() {
        // Line 3 (`x = 2;`) rewritten by bob.
        let (prog, repo) = setup(
            "void f(void) {\nint x = 1;\nx = 2;\nuse(x);\n}\n",
            &["alice", "bob"],
            &[(3, 1)],
        );
        let a = attributed(&prog, &repo);
        assert_eq!(a.len(), 1);
        assert!(a[0].cross_scope, "{a:?}");
        assert_eq!(a[0].def_author, Some(AuthorId(0)));
        assert_eq!(a[0].counterpart_authors, vec![AuthorId(1)]);
    }

    #[test]
    fn mixed_branch_overwriters_require_all_different() {
        // One overwriter by alice (same author), one by bob: NOT cross-scope
        // because not all overwriters differ.
        let src =
            "void f(int c) {\nint x = 1;\nif (c) {\nx = 2;\n} else {\nx = 3;\n}\nuse(x);\n}\n";
        let (prog, repo) = setup(src, &["alice", "bob"], &[(4, 1)]);
        let a = attributed(&prog, &repo);
        assert_eq!(a.len(), 1);
        assert!(!a[0].cross_scope);
        // Both overwriters rewritten by bob: cross-scope.
        let (prog, repo) = setup(src, &["alice", "bob"], &[(4, 1), (6, 1)]);
        let a = attributed(&prog, &repo);
        assert!(a[0].cross_scope);
    }

    #[test]
    fn library_retval_counts_as_cross_scope() {
        let (prog, repo) = setup(
            "int ext_call(void);\nvoid f(void) {\nint r = ext_call();\nr = 2;\nuse(r);\n}\n",
            &["alice"],
            &[],
        );
        let a = attributed(&prog, &repo);
        let r = a.iter().find(|x| &*x.candidate.var_name == "r").unwrap();
        assert!(r.cross_scope, "library callee must count as different");
    }

    #[test]
    fn retval_from_same_author_function_is_not_cross_scope() {
        let src =
            "int mine(void) {\nreturn 4;\n}\nvoid f(void) {\nint r = mine();\nr = 2;\nuse(r);\n}\n";
        let (prog, repo) = setup(src, &["alice"], &[]);
        let a = attributed(&prog, &repo);
        let r = a.iter().find(|x| &*x.candidate.var_name == "r").unwrap();
        assert!(!r.cross_scope);
    }

    #[test]
    fn retval_from_other_author_function_is_cross_scope() {
        // The `return 4;` line (2) authored by bob.
        let src =
            "int mine(void) {\nreturn 4;\n}\nvoid f(void) {\nint r = mine();\nr = 2;\nuse(r);\n}\n";
        let (prog, repo) = setup(src, &["alice", "bob"], &[(2, 1)]);
        let a = attributed(&prog, &repo);
        let r = a.iter().find(|x| &*x.candidate.var_name == "r").unwrap();
        assert!(r.cross_scope);
    }

    #[test]
    fn param_overwrite_compares_callsite_to_overwriter() {
        // Figure 1b shape: open() overwrites bufsz (line 2, by alice);
        // the call site (line 6) is by bob -> cross-scope.
        let src = "int open_log(char *p, int bufsz) {\nbufsz = 1400;\nreturn bufsz;\n}\nvoid g(void) {\nopen_log(\"h\", 0);\n}\n";
        let (prog, repo) = setup(src, &["alice", "bob"], &[(6, 1)]);
        let a = attributed(&prog, &repo);
        let p = a
            .iter()
            .find(|x| matches!(x.candidate.scenario, Scenario::Param { .. }))
            .unwrap();
        assert!(p.cross_scope, "{p:?}");
    }

    #[test]
    fn param_same_author_everywhere_is_not_cross_scope() {
        let src = "int open_log(char *p, int bufsz) {\nbufsz = 1400;\nreturn bufsz;\n}\nvoid g(void) {\nopen_log(\"h\", 0);\n}\n";
        let (prog, repo) = setup(src, &["alice"], &[]);
        let a = attributed(&prog, &repo);
        let p = a
            .iter()
            .find(|x| matches!(x.candidate.scenario, Scenario::Param { .. }))
            .unwrap();
        assert!(!p.cross_scope);
    }

    #[test]
    fn unknown_blame_degrades_to_conservative_cross_scope() {
        // Empty repository: no blame data at all. The robustness ladder
        // keeps such candidates (flagged) instead of silently dropping them.
        let prog = Program::build(
            &[("a.c", "void f(void) { int x = 1; x = 2; use(x); }")],
            &[],
        )
        .unwrap();
        let repo = Repository::new();
        let a = attributed(&prog, &repo);
        assert!(!a.is_empty());
        assert!(a.iter().all(|x| x.cross_scope && x.authorship_unknown));
    }

    #[test]
    fn known_blame_is_not_flagged_unknown() {
        let (prog, repo) = setup(
            "void f(void) {\nint x = 1;\nx = 2;\nuse(x);\n}\n",
            &["alice", "bob"],
            &[(3, 1)],
        );
        let a = attributed(&prog, &repo);
        assert!(a.iter().all(|x| !x.authorship_unknown));
    }
}
