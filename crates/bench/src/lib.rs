//! The library side of the harness binaries (`bench_dnsd`,
//! `bench_cache_sim`): the counting allocator and the bench-history
//! regression gate they share with the `bench_check` CI gate.

pub mod alloc;
pub mod regression;
