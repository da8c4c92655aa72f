//! Traced pass: per-layer metrics. The only difference from `perfbench`
//! is the counting allocator, which makes `prof.*` exact.

#[global_allocator]
static COUNTING_ALLOC: onesched_prof::CountingAlloc = onesched_prof::CountingAlloc::new();

fn main() {
    std::process::exit(onesched_perfbench::main_with(true));
}
