//! The untraced binary: system allocator, no spans. `--trace 1` runs a
//! short reference here and then starts `armada-bench-traced`.

fn main() -> std::process::ExitCode {
    armada_bench::main(false)
}
