//! The paper's Figure 1b: the overwritten `bufsz` configuration bug.
//!
//! `logfile_mod_open` receives the user's 'logging buffer size' but
//! immediately overwrites it with 1400, so configuring a zero buffer (flush
//! immediately) silently has no effect. The caller and the function body
//! were written by different developers — a scenario-2 cross-scope unused
//! definition (overwritten function argument).
//!
//! ```sh
//! cargo run --example config_buffer_bug
//! ```

use valuecheck::{
    pipeline::{
        run,
        Options, //
    },
    Scenario,
};
use vc_ir::Program;
use vc_vcs::{
    FileWrite,
    Repository, //
};

fn main() {
    // Author 2 implements the log module (and overwrites bufsz).
    let logfile = "\
void setup_buffer(char *path, size_t n);

int logfile_mod_open(char *path, size_t bufsz) {
  bufsz = 1400;
  if (bufsz > 0) {
    setup_buffer(path, bufsz);
  }
  return 0;
}
";
    // Author 1 calls it with the configured size (0 = unbuffered).
    let caller = "\
int logfile_mod_open(char *path, size_t bufsz);
void keep_handle(int h);

void init_logging(void) {
  int h = logfile_mod_open(\"headers.log\", 0);
  keep_handle(h);
}
";

    let mut repo = Repository::new();
    let author1 = repo.add_author("author1");
    let author2 = repo.add_author("author2");
    repo.commit(
        author2,
        1_450_000_000,
        "implement logfile module",
        vec![FileWrite {
            path: "logfile.c".into(),
            content: logfile.into(),
        }],
    );
    repo.commit(
        author1,
        1_500_000_000,
        "wire header logging",
        vec![FileWrite {
            path: "main.c".into(),
            content: caller.into(),
        }],
    );

    let prog =
        Program::build(&[("logfile.c", logfile), ("main.c", caller)], &[]).expect("program builds");
    let analysis = run(&prog, &repo, &Options::paper());

    let finding = analysis
        .ranked
        .iter()
        .find(|r| &*r.item.candidate.var_name == "bufsz")
        .expect("bufsz reported");
    let cand = &finding.item.candidate;
    assert!(matches!(cand.scenario, Scenario::Param { index: 1 }));
    assert!(finding.item.cross_scope);
    println!(
        "ValueCheck: parameter `bufsz` of logfile_mod_open is overwritten before use \
         (scenario: overwritten argument).\n\
         The call site passes 0 ('flush immediately') and is authored by a different \
         developer, so the configuration silently has no effect: a cross-scope bug."
    );
    println!();
    print!("{}", analysis.report.to_csv());
}
