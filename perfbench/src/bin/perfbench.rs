//! Timed pass: end-to-end metrics, with probe, counting allocator and
//! daemon tracing all off.

fn main() {
    std::process::exit(onesched_perfbench::main_with(false));
}
