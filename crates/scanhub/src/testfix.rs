//! Shared test fixtures for scanhub's unit-test modules.
//!
//! `key`, `store`, `lane` and `namespace` tests all need small deterministic
//! compiled libraries; the `fwlang` generate → `compile_library` dance
//! lives here once instead of being copy-pasted per module. The named
//! fixtures keep their historical (seed, name, size, arch, opt) tuples so
//! every existing assertion — exact counter values, function counts,
//! checksum behaviours — still holds.

use fwbin::format::Binary;
use fwbin::isa::{Arch, OptLevel};
use fwlang::gen::Generator;
use vm::exec::VmConfig;
use vm::fuzz::FuzzConfig;
use vm::loader::LoadedBinary;

/// Compile a deterministic `fwlang` library: `functions` generated
/// functions from `seed`, built for `arch` at `opt`.
pub(crate) fn compiled(
    seed: u64,
    name: &str,
    functions: usize,
    arch: Arch,
    opt: OptLevel,
) -> Binary {
    let lib = Generator::new(seed).library_sized(name, functions);
    fwbin::compile_library(&lib, arch, opt).unwrap()
}

/// The `key` module's fixture: 8 Arm64/O2 functions from seed 11.
pub(crate) fn keyed_binary() -> Binary {
    compiled(11, "libk", 8, Arch::Arm64, OptLevel::O2)
}

/// The `store` module's static-lane fixture: 6 Arm32/O1 functions from
/// seed 4.
pub(crate) fn store_binary() -> Binary {
    compiled(4, "libs", 6, Arch::Arm32, OptLevel::O1)
}

/// The dynamic-lane fixture: a loaded 4-function Arm64/O2 binary from
/// seed 21, plus default dynamic-stage configs.
pub(crate) fn dyn_fixture() -> (LoadedBinary, FuzzConfig, VmConfig) {
    let bin = compiled(21, "libdyn", 4, Arch::Arm64, OptLevel::O2);
    (LoadedBinary::load(bin).unwrap(), FuzzConfig::default(), VmConfig::default())
}
