use valuecheck::pipeline::{run, Options};
use valuecheck::prune::PruneReason;
use vc_ir::Program;
use vc_workload::{generate, AppProfile, PlantKind};

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25);
    let profs = if scale >= 0.999 {
        AppProfile::all()
    } else {
        AppProfile::all()
            .into_iter()
            .map(|p| p.scaled(scale))
            .collect()
    };
    for prof in profs {
        let t0 = std::time::Instant::now();
        let app = generate(&prof);
        eprintln!(
            "gen {:?} loc={} files={}",
            t0.elapsed(),
            app.loc(),
            app.sources.len()
        );
        let prog = match Program::build(&app.source_refs(), &app.defines) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("BUILD ERROR: {e}");
                return;
            }
        };
        vc_ir::validate::validate_program(&prog).unwrap();
        let analysis = run(&prog, &app.repo, &Options::paper());
        eprintln!(
            "app={} raw={} cross={} (target {}) pruned: cfg={}/{} cur={}/{} hint={}/{} peer={}/{} detected={} (target {})",
            prof.name,
            analysis.raw_candidates,
            analysis.cross_scope_candidates, prof.original_candidates(),
            analysis.pruned_by(PruneReason::ConfigDependency), prof.prune_config,
            analysis.pruned_by(PruneReason::Cursor), prof.prune_cursor,
            analysis.pruned_by(PruneReason::UnusedHint), prof.prune_hints,
            analysis.pruned_by(PruneReason::PeerDefinition), prof.prune_peer,
            analysis.detected(), prof.detected(),
        );
        // Confirmed among detected per ground truth
        let mut confirmed = 0;
        let mut unknown = vec![];
        for r in &analysis.report.rows {
            match app.truth.lookup(&r.function).map(|p| &p.kind) {
                Some(PlantKind::ConfirmedBug { .. }) => confirmed += 1,
                Some(_) => {}
                None => unknown.push(format!(
                    "{}:{} {} {}",
                    r.file, r.line, r.function, r.variable
                )),
            }
        }
        eprintln!(
            "confirmed among detected: {} (target {})",
            confirmed, prof.confirmed_bugs
        );
        if !unknown.is_empty() {
            eprintln!("UNPLANTED detections ({}):", unknown.len());
            for u in unknown.iter().take(10) {
                eprintln!("  {u}");
            }
        }
        // Which planted things were NOT detected / mis-pruned
        use std::collections::HashSet;
        let det: HashSet<&str> = analysis
            .report
            .rows
            .iter()
            .map(|r| r.function.as_str())
            .collect();
        let mut miss = vec![];
        for p in &app.truth.planted {
            match &p.kind {
                PlantKind::ConfirmedBug { .. } | PlantKind::FalsePositive { .. }
                    if !det.contains(p.func.as_str()) =>
                {
                    miss.push(format!("{} {:?}", p.func, p.kind));
                }
                _ => {}
            }
        }
        eprintln!("missing expected detections: {}", miss.len());
        for m in miss.iter().take(10) {
            eprintln!("  MISS {m}");
        }
        // Mis-pruned expected detections?
        for (a, r) in &analysis.prune_outcome.pruned {
            let func = &prog.func(a.candidate.func).name;
            if let Some(PlantKind::ConfirmedBug { .. } | PlantKind::FalsePositive { .. }) =
                app.truth.lookup(func).map(|p| &p.kind)
            {
                eprintln!("  MISPRUNED {func} by {r:?}");
            }
        }
    }
}
