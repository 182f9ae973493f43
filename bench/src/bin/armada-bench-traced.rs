//! The traced binary: the same crate with the counting allocator
//! installed, so allocation counts are live. No end-to-end wall-clock
//! metric is ever taken from this process.

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    armada_bench::main(true)
}
