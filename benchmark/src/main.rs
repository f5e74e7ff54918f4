use ftmp_benchmark::cli::{self, Cmd};
use ftmp_benchmark::{measure, table};
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: measure::CountingAlloc = measure::CountingAlloc;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match cli::parse(&argv) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd {
        Cmd::Pass(args) => {
            if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
                eprintln!("cannot create {}: {e}", args.work_dir.display());
                return ExitCode::from(2);
            }
            let out = ftmp_benchmark::run_pass(&args);
            ftmp_benchmark::report(&args, &out).and_then(|()| {
                if out.correct() && out.failed_ops() == 0 {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: {} of {} operations failed; {}",
                        args.workload,
                        out.failed_ops(),
                        out.attempted,
                        out.violations.join("; ")
                    ))
                }
            })
        }
        Cmd::Run { which, opts, json } => {
            let (results, errors) = cli::run(&which, opts, true);
            let written = json.map_or(Ok(()), |path| {
                std::fs::write(&path, cli::results_json(&results, opts))
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))
            });
            if errors.is_empty() {
                written
            } else {
                Err(errors.join("\n"))
            }
        }
        Cmd::Repeat { k, opts } => cli::repeat(k, opts),
        Cmd::List { json } => {
            print!(
                "{}",
                if json {
                    table::benchmark_json()
                } else {
                    table::listing()
                }
            );
            Ok(())
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
