//! MiniC snippet generators for every injected construct.
//!
//! Each generator returns an [`Item`]: one or two functions (a before/after
//! pair when the construct is introduced by a later commit), the prototypes
//! its file needs, and the ground-truth plant for the function expected to
//! carry exactly one unused-definition candidate.
//!
//! Design rules the generators obey:
//!
//! - every function name is globally unique (`<kind>_<app-counter>`), so
//!   findings match ground truth by function name alone;
//! - callee names are unique per item unless peer statistics are the point
//!   (peer groups share their callee), keeping §5.4 interference away;
//! - every variable is syntactically referenced somewhere, so the Clang
//!   baseline stays silent (§8.4.1: maintainers cleaned `-Wunused`);
//! - parameter-bug signatures rotate through variants so no signature group
//!   exceeds the peer threshold by accident.

use crate::truth::PlantKind;

/// Who commits an edit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// The file's long-term maintainer.
    Owner,
    /// A first-time, low-familiarity contributor (introduces real bugs).
    Newcomer,
    /// A moderately familiar contributor (introduces minor-defect FPs).
    Contributor,
    /// A drive-by author of benign same-author redundancy.
    Drifter,
}

/// When an edit lands, relative to the generated timeline.
#[derive(Clone, Copy, Debug)]
pub enum When {
    /// At an absolute unix timestamp.
    At(i64),
}

/// A later commit replacing a function's text.
#[derive(Clone, Debug)]
pub struct FuncEdit {
    /// New full text of the function.
    pub text: String,
    /// Who commits it.
    pub role: Role,
    /// When it lands.
    pub when: When,
    /// Commit message.
    pub message: String,
}

/// One generated function with an optional later edit.
#[derive(Clone, Debug)]
pub struct ItemFunc {
    /// Unique function name.
    pub name: String,
    /// Initial (v1) text; `None` when the function is added by the edit.
    pub initial: Option<String>,
    /// Optional later edit.
    pub edit: Option<FuncEdit>,
}

/// One injected construct.
#[derive(Clone, Debug)]
pub struct Item {
    /// Functions, in file order.
    pub funcs: Vec<ItemFunc>,
    /// Prototype lines the containing file must declare.
    pub protos: Vec<String>,
    /// Ground truth for candidate-bearing functions: `(func index in
    /// `funcs`, kind)` pairs. Empty for filler.
    pub plants: Vec<(usize, PlantKind)>,
}

/// A clean filler function; `shape` selects among a few bodies.
pub fn filler(id: &str, shape: usize) -> Item {
    let name = format!("util_{id}");
    let text = match shape % 4 {
        0 => format!(
            "int {name}(int a, int b) {{\n\
             int acc = a + b;\n\
             if (acc > b) {{ acc = acc - 1; }}\n\
             return acc;\n\
             }}\n"
        ),
        1 => format!(
            "int {name}(int n) {{\n\
             int s = 0;\n\
             for (int i = 0; i < n; i = i + 1) {{ s = s + i; }}\n\
             return s;\n\
             }}\n"
        ),
        2 => format!(
            "int {name}(int a) {{\n\
             int v = helper_{id}(a);\n\
             if (v < 0) {{ return v; }}\n\
             return v + 1;\n\
             }}\n"
        ),
        _ => format!(
            "void {name}(int a, int lim) {{\n\
             int cur = a;\n\
             while (cur < lim) {{ step_{id}(cur); cur = cur + 2; }}\n\
             done_{id}(cur);\n\
             }}\n"
        ),
    };
    Item {
        funcs: vec![ItemFunc {
            name,
            initial: Some(text),
            edit: None,
        }],
        protos: vec![],
        plants: vec![],
    }
}

/// A confirmed missing-check bug: a checked return value whose check is
/// destroyed by a later overwrite (the Fig. 8 shape).
pub fn bug_retval_overwrite(id: &str, when: i64, plant: PlantKind) -> Item {
    let name = format!("acl_{id}");
    let v1 = format!(
        "int {name}(int en) {{\n\
         int ret = get_perm_{id}(en);\n\
         if (ret) {{ fail_{id}(ret); }}\n\
         return 0;\n\
         }}\n"
    );
    let v2 = format!(
        "int {name}(int en) {{\n\
         int ret = get_perm_{id}(en);\n\
         ret = calc_mask_{id}(en);\n\
         if (ret) {{ fail_{id}(ret); }}\n\
         return 0;\n\
         }}\n"
    );
    Item {
        funcs: vec![ItemFunc {
            name,
            initial: Some(v1),
            edit: Some(FuncEdit {
                text: v2,
                role: Role::Newcomer,
                when: When::At(when),
                message: format!("recompute mask in acl_{id}"),
            }),
        }],
        protos: vec![],
        plants: vec![(0, plant)],
    }
}

/// A confirmed missing-check bug: a previously-checked call result becomes
/// ignored entirely (latent-error shape of Fig. 6a).
pub fn bug_ignored_retval(id: &str, when: i64, plant: PlantKind) -> Item {
    let name = format!("init_{id}");
    let v1 = format!(
        "int {name}(int a) {{\n\
         int st = op_read_{id}(a);\n\
         return chk_{id}(st);\n\
         }}\n"
    );
    let v2 = format!(
        "int {name}(int a) {{\n\
         op_read_{id}(a);\n\
         return chk_{id}(a);\n\
         }}\n"
    );
    Item {
        funcs: vec![ItemFunc {
            name,
            initial: Some(v1),
            edit: Some(FuncEdit {
                text: v2,
                role: Role::Newcomer,
                when: When::At(when),
                message: format!("simplify init path {id}"),
            }),
        }],
        protos: vec![format!("int op_read_{id}(int a);")],
        plants: vec![(0, plant)],
    }
}

/// A confirmed semantic bug: a meaningful definition overwritten by a
/// constant before use (Fig. 6b flavor).
pub fn bug_overwritten(id: &str, when: i64, plant: PlantKind) -> Item {
    let name = format!("host_{id}");
    let v1 = format!(
        "void {name}(int a) {{\n\
         int mode = a & 7;\n\
         apply_{id}(mode);\n\
         }}\n"
    );
    let v2 = format!(
        "void {name}(int a) {{\n\
         int mode = a & 7;\n\
         mode = 0;\n\
         apply_{id}(mode);\n\
         }}\n"
    );
    Item {
        funcs: vec![ItemFunc {
            name,
            initial: Some(v1),
            edit: Some(FuncEdit {
                text: v2,
                role: Role::Newcomer,
                when: When::At(when),
                message: format!("default mode in host_{id}"),
            }),
        }],
        protos: vec![],
        plants: vec![(0, plant)],
    }
}

/// Parameter-signature variants for [`bug_param`], rotated to stay under the
/// peer-definition threshold.
const PARAM_SIGS: &[(&str, &str)] = &[
    ("char *path, int bufsz", "path"),
    ("char *path, long bufsz", "path"),
    ("char *path, unsigned bufsz", "path"),
    ("char *path, size_t bufsz", "path"),
    ("int fd, int bufsz", "fd"),
    ("int fd, long bufsz", "fd"),
    ("unsigned flags, int bufsz", "flags"),
    ("unsigned flags, size_t bufsz", "flags"),
];

/// A confirmed configuration bug: a caller-supplied argument overwritten
/// inside the callee (the Fig. 1b shape). Two functions: the caller lives in
/// v1 (by the owner), the buggy callee is added later by a newcomer.
pub fn bug_param(id: &str, variant: usize, when: i64, plant: PlantKind) -> Item {
    let (sig, first) = PARAM_SIGS[variant % PARAM_SIGS.len()];
    let open = format!("open_buf_{id}");
    let caller = format!("start_{id}");
    let caller_v1 = format!(
        "void {caller}(void) {{\n\
         int h = {open}(src_{id}(), 0);\n\
         report_{id}(h);\n\
         }}\n"
    );
    let callee_v2 = format!(
        "int {open}({sig}) {{\n\
         bufsz = 1400;\n\
         setup_{id}({first}, bufsz);\n\
         return bufsz;\n\
         }}\n"
    );
    Item {
        funcs: vec![
            ItemFunc {
                name: caller,
                initial: Some(caller_v1),
                edit: None,
            },
            ItemFunc {
                name: open.clone(),
                initial: None,
                edit: Some(FuncEdit {
                    text: callee_v2,
                    role: Role::Newcomer,
                    when: When::At(when),
                    message: format!("add buffered open {id}"),
                }),
            },
        ],
        protos: vec![],
        plants: vec![(1, plant)],
    }
}

/// A minor-defect or debug-code false positive: same shape as a retval
/// overwrite, but introduced by a (more familiar) contributor, and not
/// confirmable as a bug ("the call cannot fail in this context").
pub fn fp_retval(id: &str, when: i64, debug_code: bool) -> Item {
    let prefix = if debug_code { "dbg" } else { "sync" };
    let name = format!("{prefix}_{id}");
    let v1 = format!(
        "int {name}(int a) {{\n\
         int rc = try_{id}(a);\n\
         if (rc) {{ warn_{id}(rc); }}\n\
         return 0;\n\
         }}\n"
    );
    let v2 = format!(
        "int {name}(int a) {{\n\
         int rc = try_{id}(a);\n\
         rc = settle_{id}(a);\n\
         if (rc) {{ warn_{id}(rc); }}\n\
         return 0;\n\
         }}\n"
    );
    Item {
        funcs: vec![
            // The owner adds the function shortly before the contributor's
            // change, so the definition line itself is recently authored
            // (keeping it visible to Coverity's blame-based suppression).
            ItemFunc {
                name: name.clone(),
                initial: None,
                edit: Some(FuncEdit {
                    text: v1,
                    role: Role::Owner,
                    when: When::At(when - 40 * 86_400),
                    message: format!("add {prefix} path {id}"),
                }),
            },
            ItemFunc {
                name,
                initial: None,
                edit: Some(FuncEdit {
                    text: v2,
                    role: Role::Contributor,
                    when: When::At(when),
                    message: format!("settle before warn in {prefix}_{id}"),
                }),
            },
        ],
        protos: vec![],
        plants: vec![(0, PlantKind::FalsePositive { debug_code })],
    }
}

/// An intentional configuration-dependency pattern (§5.1): the only use of
/// the value sits under a feature guard that the active build disables.
pub fn intentional_config(id: &str, plant: PlantKind) -> Item {
    let name = format!("net_probe_{id}");
    let text = format!(
        "int {name}(int a) {{\n\
         int hostcfg = cfg_read_{id}(a);\n\
         #ifdef FEATURE_{id}\n\
         net_apply_{id}(hostcfg);\n\
         #endif\n\
         return 0;\n\
         }}\n"
    );
    Item {
        funcs: vec![ItemFunc {
            name,
            initial: Some(text),
            edit: None,
        }],
        protos: vec![],
        plants: vec![(0, plant)],
    }
}

/// An intentional cursor (§5.2): the final `*o++` increment is dead and
/// later overwritten by another author's buffer reset — cross-scope, but a
/// cursor idiom, pruned by the cursor pattern.
pub fn intentional_cursor(id: &str, when: i64, plant: PlantKind) -> Item {
    let name = format!("fmt_buf_{id}");
    let v1 = format!(
        "void {name}(char *o, int n) {{\n\
         for (int j = 0; j < n; j = j + 1) {{ *o++ = 'x'; }}\n\
         *o++ = '\\0';\n\
         }}\n"
    );
    let v2 = format!(
        "void {name}(char *o, int n) {{\n\
         for (int j = 0; j < n; j = j + 1) {{ *o++ = 'x'; }}\n\
         *o++ = '\\0';\n\
         o = out_base_{id}();\n\
         flush_{id}(o);\n\
         }}\n"
    );
    Item {
        funcs: vec![ItemFunc {
            name,
            initial: Some(v1),
            edit: Some(FuncEdit {
                text: v2,
                role: Role::Contributor,
                when: When::At(when),
                message: format!("flush formatted buffer {id}"),
            }),
        }],
        protos: vec![format!("char *out_base_{id}(void);")],
        plants: vec![(0, plant)],
    }
}

/// An intentional unused hint (§5.3): the definition line carries the
/// `unused` keyword by naming convention.
pub fn intentional_hint(id: &str, plant: PlantKind) -> Item {
    let name = format!("compat_{id}");
    let text = format!(
        "int {name}(int a) {{\n\
         int rc_unused_{id} = run_op_{id}(a);\n\
         rc_unused_{id} = 0;\n\
         return ack_{id}(rc_unused_{id});\n\
         }}\n"
    );
    Item {
        funcs: vec![ItemFunc {
            name,
            initial: Some(text),
            edit: None,
        }],
        protos: vec![],
        plants: vec![(0, plant)],
    }
}

/// One site of an intentional peer group (§5.4): a bare call ignoring the
/// result of the group's log-style function. The group's prototype must be
/// emitted once per file via [`peer_proto`].
pub fn intentional_peer_site(group: usize, j: usize, id: &str, plant: PlantKind) -> Item {
    let name = format!("evt_{group}_{j}_{id}");
    let text = format!(
        "void {name}(int a) {{\n\
         logx_{group}(\"evt\");\n\
         note_{id}(a);\n\
         }}\n"
    );
    Item {
        funcs: vec![ItemFunc {
            name,
            initial: Some(text),
            edit: None,
        }],
        protos: vec![peer_proto(group)],
        plants: vec![(0, plant)],
    }
}

/// The prototype line of peer group `group`'s shared callee.
pub fn peer_proto(group: usize) -> String {
    format!("int logx_{group}(char *m);")
}

/// One checked-function group: a project-defined status function, `consumers`
/// call sites that check its result, and `benign` same-author sites that
/// deliberately ignore it. The ignoring sites are what Smatch's and
/// Coverity's majority heuristics flag (§8.4.3/§8.4.4) — false positives,
/// since the same developer wrote both the callee and the ignoring sites.
///
/// Everything lives in one item (one file, one owner) so all blame agrees.
pub fn checked_group(group: usize, id: &str, consumers: usize, benign: usize) -> Item {
    let callee = format!("status_chk_{group}");
    let mut funcs = Vec::new();
    funcs.push(ItemFunc {
        name: callee.clone(),
        initial: Some(format!(
            "int {callee}(int a) {{
             return probe_{group}_{id}(a);
             }}
"
        )),
        edit: None,
    });
    for j in 0..consumers {
        let name = format!("chk_use_{group}_{j}_{id}");
        funcs.push(ItemFunc {
            name: name.clone(),
            initial: Some(format!(
                "void {name}(int a) {{
                 int r = {callee}(a);
                 if (r) {{ bail_{group}_{j}_{id}(r); }}
                 }}
"
            )),
            edit: None,
        });
    }
    let mut plants = Vec::new();
    for j in 0..benign {
        let name = format!("chk_skip_{group}_{j}_{id}");
        plants.push((funcs.len(), PlantKind::NonCross { real_bug: false }));
        funcs.push(ItemFunc {
            name: name.clone(),
            initial: Some(format!(
                "void {name}(int a) {{
                 {callee}(a);
                 after_{group}_{j}_{id}(a);
                 }}
"
            )),
            edit: None,
        });
    }
    Item {
        funcs,
        protos: vec![],
        plants,
    }
}

/// A confirmed missing-check bug shaped so the Smatch/Coverity majority
/// heuristics can also see it: a newcomer's edit drops the check on a
/// mostly-checked status function (defined by another author in
/// [`checked_group`] `group`).
pub fn bug_ignored_checked(id: &str, group: usize, when: i64, plant: PlantKind) -> Item {
    let name = format!("seq_{id}");
    let callee = format!("status_chk_{group}");
    let v1 = format!(
        "int {name}(int a) {{
         int r = {callee}(a);
         if (r) {{ return r; }}
         return fin_{id}(a);
         }}
"
    );
    let v2 = format!(
        "int {name}(int a) {{
         {callee}(a);
         return fin_{id}(a);
         }}
"
    );
    Item {
        funcs: vec![ItemFunc {
            name,
            initial: Some(v1),
            edit: Some(FuncEdit {
                text: v2,
                role: Role::Newcomer,
                when: When::At(when),
                message: format!("streamline sequence {id}"),
            }),
        }],
        protos: vec![],
        plants: vec![(0, plant)],
    }
}

/// A same-author unused *call result* that is nonetheless a real bug —
/// ValueCheck's deliberate blind spot (§8.4.5's closing note), visible to
/// Coverity's unused-value check.
pub fn non_cross_real(id: &str, role: Role, when: i64) -> Item {
    let name = format!("tally_{id}");
    // The callee is defined in the same commit by the same author, so the
    // return-value rule sees matching authors on both sides: not cross-scope.
    let text = format!(
        "int fetch_{id}(int a) {{\n\
         return raw_get_{id}(a);\n\
         }}\n\
         void {name}(int a) {{\n\
         int q = fetch_{id}(a);\n\
         q = refetch_{id}(a);\n\
         put_{id}(q);\n\
         }}\n"
    );
    Item {
        funcs: vec![ItemFunc {
            name,
            initial: None,
            edit: Some(FuncEdit {
                text,
                role,
                when: When::At(when),
                message: format!("add tally {id}"),
            }),
        }],
        protos: vec![],
        plants: vec![(0, PlantKind::NonCross { real_bug: true })],
    }
}

/// A same-author (non-cross-scope) unused definition, added wholesale by one
/// author in a single commit.
pub fn non_cross(id: &str, role: Role, when: i64, const_init: bool) -> Item {
    let name = format!("scan_{id}");
    // Most same-author redundancies in real code are defensive constant
    // initializations (which fb-infer suppresses); a minority carry a
    // computed value.
    let init = if const_init {
        "0".to_string()
    } else {
        "a * 2".to_string()
    };
    let text = format!(
        "void {name}(int a) {{\n\
         int t = {init};\n\
         t = a + 3;\n\
         emit_{id}(t);\n\
         }}\n"
    );
    Item {
        funcs: vec![ItemFunc {
            name,
            initial: None,
            edit: Some(FuncEdit {
                text,
                role,
                when: When::At(when),
                message: format!("add scanner {id}"),
            }),
        }],
        protos: vec![],
        plants: vec![(0, PlantKind::NonCross { real_bug: false })],
    }
}

/// A §3.1 preliminary-history construct: an unused definition present in the
/// 2019 tree and removed later. `intro` is the (pre-2019) introduction time,
/// `removal` the (2019–2021) removal time.
///
/// For `cross_scope` plants the unused definition comes from a two-author
/// sequence; for `peer_missed` the 2019 candidate is a bare call to the
/// shared peer callee of `peer_group`, which the peer pruner removes.
pub fn prelim(
    id: &str,
    intro: i64,
    removal: i64,
    bugfix: bool,
    cross_scope: bool,
    peer_missed: bool,
    peer_group: usize,
) -> Item {
    let name = format!("pre_{id}");
    let message = if bugfix {
        format!("fix: handle result properly in pre_{id}")
    } else {
        format!("cleanup: drop redundant assignment in pre_{id}")
    };
    if peer_missed {
        // 2019 state ignores the peer callee's result; the fix checks it.
        let v1 = format!(
            "int {name}(int a) {{\n\
             prep_{id}(a);\n\
             return 0;\n\
             }}\n"
        );
        let v2 = format!(
            "int {name}(int a) {{\n\
             prep_{id}(a);\n\
             logx_{peer_group}(\"pre\");\n\
             return 0;\n\
             }}\n"
        );
        let v3 = format!(
            "int {name}(int a) {{\n\
             prep_{id}(a);\n\
             int lrc = logx_{peer_group}(\"pre\");\n\
             if (lrc < 0) {{ return lrc; }}\n\
             return 0;\n\
             }}\n"
        );
        return Item {
            funcs: vec![
                ItemFunc {
                    name: name.clone(),
                    initial: Some(v1),
                    edit: Some(FuncEdit {
                        text: v2,
                        role: Role::Newcomer,
                        when: When::At(intro),
                        message: format!("log prep in pre_{id}"),
                    }),
                },
                // The removal is modelled as a second edit to the same
                // function; the generator flattens consecutive edits.
                ItemFunc {
                    name,
                    initial: None,
                    edit: Some(FuncEdit {
                        text: v3,
                        role: Role::Owner,
                        when: When::At(removal),
                        message,
                    }),
                },
            ],
            protos: vec![peer_proto(peer_group)],
            plants: vec![(
                0,
                PlantKind::PrelimRemoved {
                    bugfix,
                    cross_scope,
                    peer_missed,
                },
            )],
        };
    }
    let v1 = format!(
        "int {name}(int a) {{\n\
         int pst = pread_{id}(a);\n\
         finish_{id}(pst);\n\
         return 0;\n\
         }}\n"
    );
    let (v2, intro_role): (String, Role) = if cross_scope {
        (
            format!(
                "int {name}(int a) {{\n\
                 int pst = pread_{id}(a);\n\
                 pst = pfall_{id}(a);\n\
                 finish_{id}(pst);\n\
                 return 0;\n\
                 }}\n"
            ),
            Role::Newcomer,
        )
    } else {
        // Single-author redundancy: the same (owner) author rewrites their
        // own function, so blame on def and overwrite agree.
        (
            format!(
                "int {name}(int a) {{\n\
                 int pst = pread_{id}(a);\n\
                 pst = pfall_{id}(a);\n\
                 finish_{id}(pst);\n\
                 return 0;\n\
                 }}\n"
            ),
            Role::Owner,
        )
    };
    let v3 = format!(
        "int {name}(int a) {{\n\
         int pst = pfall_{id}(a);\n\
         if (pst < 0) {{ return pst; }}\n\
         finish_{id}(pst);\n\
         return 0;\n\
         }}\n"
    );
    Item {
        funcs: vec![
            ItemFunc {
                name: name.clone(),
                initial: Some(v1),
                edit: Some(FuncEdit {
                    text: v2,
                    role: intro_role,
                    when: When::At(intro),
                    message: format!("add fallback path in pre_{id}"),
                }),
            },
            ItemFunc {
                name,
                initial: None,
                edit: Some(FuncEdit {
                    text: v3,
                    role: Role::Owner,
                    when: When::At(removal),
                    message,
                }),
            },
        ],
        protos: vec![],
        plants: vec![(
            0,
            PlantKind::PrelimRemoved {
                bugfix,
                cross_scope,
                peer_missed,
            },
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_ir::{
        span::FileId,
        testing::parse_clean, //
    };

    fn parses(item: &Item) {
        for f in &item.funcs {
            for text in f.initial.iter().chain(f.edit.as_ref().map(|e| &e.text)) {
                parse_clean(FileId(0), text);
            }
        }
        for p in &item.protos {
            parse_clean(FileId(0), p);
        }
    }

    #[test]
    fn all_snippets_parse() {
        let pk = PlantKind::NonCross { real_bug: false };
        parses(&filler("t0", 0));
        parses(&filler("t1", 1));
        parses(&filler("t2", 2));
        parses(&filler("t3", 3));
        parses(&bug_retval_overwrite("t4", 0, pk.clone()));
        parses(&bug_ignored_retval("t5", 0, pk.clone()));
        parses(&bug_overwritten("t6", 0, pk.clone()));
        for v in 0..PARAM_SIGS.len() {
            parses(&bug_param(&format!("t7_{v}"), v, 0, pk.clone()));
        }
        parses(&fp_retval("t8", 0, false));
        parses(&fp_retval("t9", 0, true));
        parses(&intentional_config("t10", pk.clone()));
        parses(&intentional_cursor("t11", 0, pk.clone()));
        parses(&intentional_hint("t12", pk.clone()));
        parses(&intentional_peer_site(1, 2, "t13", pk.clone()));
        parses(&non_cross("t14", Role::Drifter, 0, true));
        parses(&non_cross("t14b", Role::Drifter, 0, false));
        parses(&checked_group(3, "t18", 10, 4));
        parses(&bug_ignored_checked("t19", 3, 0, pk.clone()));
        parses(&non_cross_real("t20", Role::Contributor, 0));
        parses(&prelim("t15", 0, 1, true, true, false, 0));
        parses(&prelim("t16", 0, 1, false, false, false, 0));
        parses(&prelim("t17", 0, 1, true, true, true, 3));
    }
}
