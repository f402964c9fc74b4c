//! `mr-perf`: see the library documentation and `README.md`.

fn main() -> std::process::ExitCode {
    mr_perf::cli::main(std::env::args().skip(1).collect())
}
