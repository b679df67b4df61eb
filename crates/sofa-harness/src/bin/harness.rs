//! The harness CLI — the workspace's one binary.
//!
//! ```text
//! harness run  [--all | --spec NAME]... [--json PATH] [--update-golden] [--specs DIR]
//! harness check [--specs DIR]
//! harness list [--markdown] [--specs DIR]
//! harness exp  NAME [--json PATH]
//! harness exp  serve_fleet --requests N [--rate F] [--nodes N]
//!              [--instances-per-node N] [--disaggregate] [--json PATH]
//! harness exp  --all
//! ```
//!
//! Exit codes follow the regression-gate contract: `0` every predicate
//! passed, `1` a gate tripped, `2` an artifact or pipeline problem
//! (missing file, unknown spec or experiment, bad flag). `harness exp`
//! prints an experiment's summary and tables; its `--json` path is taken
//! relative to the working directory, `harness run --json` relative to the
//! workspace root.

use sofa_bench::experiments::serve_fleet_scaled;
use sofa_bench::registry;
use sofa_bench::report::tables_to_json;
use sofa_harness::runner::{
    check_specs, load_specs_dir, run_specs, write_artifact, RunOptions, SpecStatus,
};
use sofa_harness::spec::Spec;
use std::path::PathBuf;
use std::process::ExitCode;

fn workspace_root() -> PathBuf {
    // crates/sofa-harness -> workspace root
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

struct Args {
    command: String,
    all: bool,
    specs: Vec<String>,
    experiment: Option<String>,
    json: Option<PathBuf>,
    update_golden: bool,
    markdown: bool,
    specs_dir: PathBuf,
    /// Set once any `serve_fleet` scale flag is given.
    scale: Option<FleetScale>,
}

/// `harness exp serve_fleet`'s scaled mode: one fleet run at explicit size.
struct FleetScale {
    requests: Option<usize>,
    rate: f64,
    nodes: usize,
    instances_per_node: usize,
    disaggregate: bool,
}

impl Default for FleetScale {
    fn default() -> Self {
        FleetScale {
            requests: None,
            rate: 1500.0,
            nodes: 8,
            instances_per_node: 8,
            disaggregate: false,
        }
    }
}

fn usage() -> String {
    "usage: harness <run|check|list|exp> [options]\n\
     \n\
     harness run  [--all | --spec NAME]... [--json PATH] [--update-golden] [--specs DIR]\n\
     harness check [--specs DIR]\n\
     harness list [--markdown] [--specs DIR]\n\
     harness exp  NAME [--json PATH]\n\
     harness exp  serve_fleet --requests N [--rate F] [--nodes N] [--instances-per-node N] [--disaggregate] [--json PATH]\n\
     harness exp  --all\n"
        .to_string()
}

fn number<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    text.parse()
        .map_err(|e| format!("{flag} {text:?} is not a valid value: {e}"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let command = argv.first().cloned().ok_or_else(usage)?;
    if !matches!(command.as_str(), "run" | "check" | "list" | "exp") {
        return Err(format!("unknown command {command:?}\n{}", usage()));
    }
    let mut args = Args {
        command,
        all: false,
        specs: Vec::new(),
        experiment: None,
        json: None,
        update_golden: false,
        markdown: false,
        specs_dir: workspace_root().join("specs"),
        scale: None,
    };
    let mut it = argv[1..].iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--all" => args.all = true,
            "--spec" => args.specs.push(value("--spec")?),
            "--json" => args.json = Some(PathBuf::from(value("--json")?)),
            "--update-golden" => args.update_golden = true,
            "--markdown" => args.markdown = true,
            "--specs" => args.specs_dir = PathBuf::from(value("--specs")?),
            "--requests" => {
                let n = number("--requests", value("--requests")?)?;
                args.scale.get_or_insert_with(FleetScale::default).requests = Some(n);
            }
            "--rate" => {
                let rate = number("--rate", value("--rate")?)?;
                args.scale.get_or_insert_with(FleetScale::default).rate = rate;
            }
            "--nodes" => {
                let n = number("--nodes", value("--nodes")?)?;
                args.scale.get_or_insert_with(FleetScale::default).nodes = n;
            }
            "--instances-per-node" => {
                let n = number("--instances-per-node", value("--instances-per-node")?)?;
                args.scale
                    .get_or_insert_with(FleetScale::default)
                    .instances_per_node = n;
            }
            "--disaggregate" => {
                args.scale
                    .get_or_insert_with(FleetScale::default)
                    .disaggregate = true;
            }
            name if args.command == "exp"
                && args.experiment.is_none()
                && !name.starts_with('-') =>
            {
                args.experiment = Some(name.to_string());
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if args.scale.is_some() && args.command != "exp" {
        return Err(
            "--requests/--rate/--nodes/--instances-per-node/--disaggregate \
                    apply only to `harness exp serve_fleet`"
                .to_string(),
        );
    }
    Ok(args)
}

fn load_all(dir: &std::path::Path) -> Result<Vec<Spec>, String> {
    let mut specs = Vec::new();
    for (path, parsed) in load_specs_dir(dir)? {
        specs.push(parsed.map_err(|e| format!("{}: {e}", path.display()))?);
    }
    Ok(specs)
}

fn cmd_run(args: &Args) -> Result<u8, String> {
    let mut specs = load_all(&args.specs_dir)?;
    if !args.all {
        if args.specs.is_empty() {
            return Err(format!(
                "harness run needs --all or --spec NAME\n{}",
                usage()
            ));
        }
        for name in &args.specs {
            if !specs.iter().any(|s| &s.name == name) {
                return Err(format!(
                    "no spec named {name:?} in {}",
                    args.specs_dir.display()
                ));
            }
        }
        specs.retain(|s| args.specs.contains(&s.name));
    }
    let opts = RunOptions {
        root: workspace_root(),
        update_golden: args.update_golden,
    };
    let summary = run_specs(&specs, &opts);
    for r in &summary.results {
        let (tag, lines) = match r.status() {
            SpecStatus::Pass => ("PASS", &r.ok),
            SpecStatus::GateFailed => ("FAIL", &r.failures),
            SpecStatus::ArtifactError => ("ERROR", &r.artifact_errors),
        };
        let gate = r
            .gate
            .as_deref()
            .map(|g| format!(" [{g}]"))
            .unwrap_or_default();
        println!("{tag:<5} {}{gate} ({})", r.name, r.experiment);
        for line in lines {
            println!("      {line}");
        }
        for artifact in &r.artifacts {
            println!("      wrote {artifact}");
        }
    }
    let passed = summary
        .results
        .iter()
        .filter(|r| r.status() == SpecStatus::Pass)
        .count();
    println!("{passed}/{} specs passed", summary.results.len());
    if let Some(json_path) = &args.json {
        let path = workspace_root().join(json_path);
        write_artifact(&path, &summary.to_json())?;
        println!("wrote {}", path.display());
    }
    Ok(summary.exit_code())
}

fn cmd_check(args: &Args) -> Result<u8, String> {
    let problems = check_specs(&args.specs_dir, &workspace_root());
    if problems.is_empty() {
        let n = load_all(&args.specs_dir).map(|s| s.len()).unwrap_or(0);
        println!("{n} specs OK in {}", args.specs_dir.display());
        Ok(0)
    } else {
        for p in &problems {
            eprintln!("spec lint: {p}");
        }
        Err(format!("{} spec problem(s)", problems.len()))
    }
}

fn cmd_list(args: &Args) -> Result<u8, String> {
    let specs = load_all(&args.specs_dir)?;
    if args.markdown {
        print!("{}", sofa_harness::catalog::experiments_markdown(&specs));
    } else {
        println!("registered experiments:");
        for e in registry::registry() {
            println!("  {}: {}", e.name, e.about);
        }
        println!("\nspecs in {}:", args.specs_dir.display());
        for s in &specs {
            println!(
                "  {} -> {} ({} predicate(s))",
                s.name,
                s.experiment,
                s.predicates.len()
            );
        }
    }
    Ok(0)
}

/// Every `in_all` experiment, tables printed in registry order. The
/// independent ones fan out across cores; `main_thread` ones (wall-time
/// studies) run afterwards on this thread, because inside a parallel
/// region `sofa-par` degrades to sequential and would flatten their
/// speedup column.
fn run_all_experiments() {
    let (serial, fanout): (Vec<_>, Vec<_>) = registry::registry()
        .into_iter()
        .filter(|e| e.in_all)
        .partition(|e| e.main_thread);
    for out in sofa_par::par_map(&fanout, |e| (e.run)()) {
        for table in &out.tables {
            table.print();
        }
    }
    for e in serial {
        for table in (e.run)().tables {
            table.print();
        }
    }
}

fn cmd_exp(args: &Args) -> Result<u8, String> {
    let name = match (&args.experiment, args.all) {
        (None, true) if args.json.is_none() && args.scale.is_none() => {
            run_all_experiments();
            return Ok(0);
        }
        (Some(name), false) => name,
        _ => {
            return Err(format!(
                "harness exp takes one experiment NAME, or --all alone\n{}",
                usage()
            ))
        }
    };
    let entry = registry::find(name)
        .ok_or_else(|| format!("no experiment named {name:?} (see `harness list`)"))?;
    let tables = match &args.scale {
        None => {
            let out = (entry.run)();
            if let Some(summary) = out.texts.get("summary") {
                print!("{summary}");
            }
            out.tables
        }
        Some(_) if entry.name != "serve_fleet" => {
            return Err(format!(
                "--requests/--rate/--nodes/--instances-per-node/--disaggregate \
                 apply only to serve_fleet, not {name:?}"
            ))
        }
        Some(scale) => {
            let requests = scale
                .requests
                .ok_or("serve_fleet scale flags need --requests N")?;
            let table = serve_fleet_scaled(
                requests,
                scale.rate,
                scale.nodes,
                scale.instances_per_node,
                scale.disaggregate,
            )
            .map_err(|e| format!("serve_fleet: {e}"))?;
            vec![table]
        }
    };
    for table in &tables {
        table.print();
        println!();
    }
    if let Some(path) = &args.json {
        write_artifact(path, &tables_to_json(&tables))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let run = parse_args(&argv).and_then(|args| match args.command.as_str() {
        "run" => cmd_run(&args),
        "check" => cmd_check(&args),
        "list" => cmd_list(&args),
        "exp" => cmd_exp(&args),
        _ => unreachable!("parse_args validated the command"),
    });
    match run {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("harness: {e}");
            ExitCode::from(2)
        }
    }
}
