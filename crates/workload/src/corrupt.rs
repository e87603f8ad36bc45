//! Deterministic source corruption for the error-recovering front end.
//!
//! Where [`crate::faults`] attacks the *pipeline* (degenerate CFGs, injected
//! panics), this module attacks the *parser*: it plants a committed file of
//! known-good functions — each carrying one library-retval dead store the
//! scan must report — and then corrupts exactly one of them per
//! [`CorruptKind`]. The returned [`Corruption`] states the fate of every
//! planted bug, so a harness can hold recovery to the contract:
//!
//! | kind                  | mutation                                | victim fate          |
//! |-----------------------|-----------------------------------------|----------------------|
//! | `TruncateMidFunction` | file cut inside the last function       | finding lost         |
//! | `DeleteBrace`         | last function's closing `}` removed     | finding lost         |
//! | `GarbageBytes`        | a line of lexer garbage inside one body | kept, low confidence |
//! | `UntermString`        | an unterminated string inside one body  | kept, low confidence |
//! | `MangleSignature`     | one function's return type mangled      | finding lost         |
//!
//! Every *other* planted bug — in the corrupted file and in the rest of the
//! application — must be reported with the **same fingerprint** as a scan of
//! the pristine sources, and the corrupted function must cost exactly one
//! function-granular parse failure.
//!
//! [`corrupted_history`] carries the same contract across revisions: a
//! commit that corrupts one function must cost a per-revision scan (delta,
//! history, a commit scan) only that function.

use vc_vcs::{
    CommitId,
    FileWrite,
    Repository, //
};

use crate::{
    delta::buggy_fn,
    generate::GeneratedApp,
    profile::{
        DAY,
        NOW, //
    },
};

/// Functions in the planted fault file.
pub const FAULT_FILE_FUNCS: usize = 5;

/// The kinds of front-end corruption.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorruptKind {
    /// The file ends mid-statement inside the last function.
    TruncateMidFunction,
    /// The last function's closing brace is deleted (body runs to EOF).
    DeleteBrace,
    /// A line of unlexable garbage appears inside one function body.
    GarbageBytes,
    /// An unterminated string literal appears inside one function body.
    UntermString,
    /// One function's return type becomes an unknown identifier.
    MangleSignature,
}

impl CorruptKind {
    /// Every kind, in sweep order.
    pub const ALL: [CorruptKind; 5] = [
        CorruptKind::TruncateMidFunction,
        CorruptKind::DeleteBrace,
        CorruptKind::GarbageBytes,
        CorruptKind::UntermString,
        CorruptKind::MangleSignature,
    ];

    /// Whether the corruption lands *inside* a body that recovery can
    /// salvage (statement-level sync), as opposed to costing the item.
    pub fn salvageable(self) -> bool {
        matches!(self, CorruptKind::GarbageBytes | CorruptKind::UntermString)
    }
}

/// What must become of one planted bug after the corrupted scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BugFate {
    /// Reported with the same fingerprint as the pristine scan.
    Kept,
    /// Reported with the same fingerprint, demoted to low confidence
    /// (its function lowered out of a poisoned parse).
    KeptLowConfidence,
    /// Dropped together with its corrupted function.
    Lost,
}

/// The committed file of known-good functions corruption is applied to.
#[derive(Clone, Debug)]
pub struct FaultFile {
    /// Path of the planted file.
    pub path: String,
    /// Function names, in file order (one planted bug each).
    pub functions: Vec<String>,
    /// Seeded tag baked into every identifier.
    tag: String,
    /// Victim index for body-level (salvageable) corruption kinds.
    mid_victim: usize,
}

/// One applied corruption and the evidence the scan must produce.
#[derive(Clone, Debug)]
pub struct Corruption {
    /// The corruption applied.
    pub kind: CorruptKind,
    /// The corrupted file.
    pub file: String,
    /// The function the single expected parse failure must be attributed
    /// to (recovery is function-granular for every kind here).
    pub victim: String,
    /// Fate of each planted bug in the fault file, in file order.
    pub fates: Vec<(String, BugFate)>,
}

/// One function slot of the fault file: a library prototype plus a body
/// whose first definition (`got = lib()`) is dead — overwritten before any
/// use — which the retval rule reports as cross-scope under every history.
fn slot_text(tag: &str, i: usize) -> String {
    format!(
        "int vc_corrupt_lib_{tag}_{i}(void);\n\
         int vc_corrupt_{tag}_f{i}(void) {{\n\
         int got = vc_corrupt_lib_{tag}_{i}();\n\
         got = 2;\n\
         return got;\n\
         }}\n"
    )
}

/// Plants the committed fault file into `app`, pristine. Deterministic in
/// `seed`. Corruptions are applied afterwards with [`corrupt`], typically to
/// clones of the returned app so one pristine scan serves every kind.
pub fn plant_fault_file(app: &mut GeneratedApp, seed: u64) -> FaultFile {
    let tag = format!("s{seed}");
    let text: String = (0..FAULT_FILE_FUNCS).map(|i| slot_text(&tag, i)).collect();
    let path = format!("src/zz_corrupt_{tag}.c");

    // Committed in one write by a dedicated author, so blame resolves for
    // every line and the uncorrupted findings rank with full confidence.
    let author = app.repo.add_author(format!("corruptbot_{tag}"));
    app.repo.commit(
        author,
        NOW - DAY,
        format!("plant {path}"),
        vec![FileWrite {
            path: path.clone(),
            content: text.clone(),
        }],
    );
    app.sources.push((path.clone(), text));

    FaultFile {
        path,
        functions: (0..FAULT_FILE_FUNCS)
            .map(|i| format!("vc_corrupt_{tag}_f{i}"))
            .collect(),
        tag,
        // Never the first or last slot: every body-level corruption keeps
        // an intact function on both sides of the damage.
        mid_victim: 1 + (seed as usize % (FAULT_FILE_FUNCS - 2)),
    }
}

/// Applies one corruption kind to the planted file inside `app` and returns
/// the expected evidence. Panics if `app` does not contain `ff.path`.
pub fn corrupt(app: &mut GeneratedApp, ff: &FaultFile, kind: CorruptKind) -> Corruption {
    let victim_idx = match kind {
        CorruptKind::TruncateMidFunction | CorruptKind::DeleteBrace => FAULT_FILE_FUNCS - 1,
        _ => ff.mid_victim,
    };
    let mut slots: Vec<String> = (0..FAULT_FILE_FUNCS)
        .map(|i| slot_text(&ff.tag, i))
        .collect();
    let v = &mut slots[victim_idx];
    match kind {
        CorruptKind::TruncateMidFunction => {
            // Cut inside the body, mid-statement: `...lib();\ngot<EOF>`.
            let cut = v.find("got = 2;").expect("slot has the dead store") + "got".len();
            v.truncate(cut);
        }
        CorruptKind::DeleteBrace => {
            let brace = v.rfind('}').expect("slot has a closing brace");
            v.remove(brace);
        }
        CorruptKind::GarbageBytes => {
            // After the last real statement, before the closing brace:
            // statement-level sync stops at the `}` and poisons only the
            // garbage, so every real statement (and the bug) survives.
            *v = v.replace("return got;\n}", "return got;\n@@ $$ ??\n}");
        }
        CorruptKind::UntermString => {
            *v = v.replace("return got;\n}", "return got;\nlog(\"oops;\n}");
        }
        CorruptKind::MangleSignature => {
            let sig = format!("int vc_corrupt_{}_f{victim_idx}(void)", ff.tag);
            let mangled = format!("vc_mangled_t vc_corrupt_{}_f{victim_idx}(void)", ff.tag);
            *v = v.replace(&sig, &mangled);
        }
    }

    let text: String = slots.concat();
    let entry = app
        .sources
        .iter_mut()
        .find(|(p, _)| *p == ff.path)
        .expect("fault file is in the app sources");
    entry.1 = text;

    Corruption {
        kind,
        file: ff.path.clone(),
        victim: ff.functions[victim_idx].clone(),
        fates: ff
            .functions
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let fate = if i != victim_idx {
                    BugFate::Kept
                } else if kind.salvageable() {
                    BugFate::KeptLowConfidence
                } else {
                    BugFate::Lost
                };
                (f.clone(), fate)
            })
            .collect(),
    }
}

/// A two-commit history of `a.c`: `clean`, then `broken`. Returns the
/// repository, the clean commit and the corrupted one.
fn corrupted_revision(clean: String, broken: String) -> (Repository, CommitId, CommitId) {
    let write = |content: String| {
        vec![FileWrite {
            path: "a.c".into(),
            content,
        }]
    };
    let mut repo = Repository::new();
    let dev = repo.add_author("dev");
    let clean_commit = repo.commit(dev, 1, "plant two bugs", write(clean));
    let broken_commit = repo.commit(dev, 2, "corrupt a.c", write(broken));
    (repo, clean_commit, broken_commit)
}

/// A two-commit history whose second revision is corrupted. The first
/// commit writes `a.c` with two functions, `alpha` and `beta`, each holding
/// one library-retval dead store (cross-scope even under a single author);
/// the second appends `int broken(void) { int x = $$; use(x); }`, whose
/// body holds lexer garbage. Returns the repository, the clean commit and
/// the corrupted one.
pub fn corrupted_history() -> (Repository, CommitId, CommitId) {
    let clean = buggy_fn("alpha") + &buggy_fn("beta");
    let broken = format!("{clean}int broken(void) {{ int x = $$; use(x); }}\n");
    corrupted_revision(clean, broken)
}

/// Like [`corrupted_history`], but the corruption costs a finding: `a.c`
/// holds `beta` then `alpha`, and the second revision is a truncated write
/// that ends inside `alpha`'s body, so recovery drops `alpha` (and its
/// finding) while `beta` survives.
pub fn truncated_history() -> (Repository, CommitId, CommitId) {
    let clean = buggy_fn("beta") + &buggy_fn("alpha");
    let cut = clean.find("ret = calc_alpha").expect("alpha's overwrite") + "ret = calc_al".len();
    let broken = clean[..cut].to_string();
    corrupted_revision(clean, broken)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, AppProfile};

    fn tiny_app(seed: u64) -> GeneratedApp {
        let mut profile = AppProfile::nfs_ganesha().scaled(0.01);
        profile.seed = seed;
        profile.name = format!("corrupttest{seed}");
        generate(&profile)
    }

    #[test]
    fn planting_is_deterministic_and_committed() {
        let make = || {
            let mut app = tiny_app(3);
            let ff = plant_fault_file(&mut app, 7);
            (app.sources, ff.functions.clone(), ff.path.clone())
        };
        let (s1, f1, p1) = make();
        let (s2, f2, p2) = make();
        assert_eq!(s1, s2);
        assert_eq!(f1, f2);
        assert_eq!(p1, p2);
        assert_eq!(f1.len(), FAULT_FILE_FUNCS);
    }

    #[test]
    fn every_kind_mutates_only_the_fault_file() {
        let mut base = tiny_app(4);
        let ff = plant_fault_file(&mut base, 11);
        for kind in CorruptKind::ALL {
            let mut app = base.clone();
            let cor = corrupt(&mut app, &ff, kind);
            assert_eq!(cor.file, ff.path);
            assert!(ff.functions.contains(&cor.victim));
            let changed: Vec<&String> = app
                .sources
                .iter()
                .zip(&base.sources)
                .filter(|(a, b)| a != b)
                .map(|(a, _)| &a.0)
                .collect();
            assert_eq!(changed, vec![&ff.path], "{kind:?} touches one file");
        }
    }

    #[test]
    fn fates_isolate_the_victim() {
        let mut base = tiny_app(5);
        let ff = plant_fault_file(&mut base, 13);
        for kind in CorruptKind::ALL {
            let mut app = base.clone();
            let cor = corrupt(&mut app, &ff, kind);
            let lost: Vec<&String> = cor
                .fates
                .iter()
                .filter(|(_, fate)| *fate != BugFate::Kept)
                .map(|(f, _)| f)
                .collect();
            assert_eq!(lost, vec![&cor.victim], "{kind:?} costs only the victim");
            let expected = if kind.salvageable() {
                BugFate::KeptLowConfidence
            } else {
                BugFate::Lost
            };
            let (_, fate) = cor.fates.iter().find(|(f, _)| *f == cor.victim).unwrap();
            assert_eq!(*fate, expected);
        }
    }
}
