//! Content-addressed artifact keys.
//!
//! A key identifies everything the static stage derives from one function:
//! its disassembly, recovered CFG, and Table-I feature vector. Those
//! artifacts are fully determined by the function's code bytes, the
//! architecture they decode under, the function-record metadata that feeds
//! the extractor (export flag, frame size), and the binary's no-return
//! import indices (which steer CFG block typing) — so the key hashes
//! exactly those inputs plus the feature-schema version. Two binaries
//! that share a byte-identical function (the common case across firmware
//! revisions of one component) share the cache entry; re-encoding and
//! decoding a binary through the FWB wire format preserves every hashed
//! input, so keys are stable across serialization round-trips.

use fwbin::format::Binary;
use fwbin::isa::Arch;
use vm::exec::VmConfig;
use vm::fuzz::FuzzConfig;

/// Version of the cached-artifact schema. Bump whenever
/// `patchecko_core::features::extract`, [`disasm::CfgSummary`], or the
/// dynamic-lane shapes (`vm::env::ExecEnv`,
/// `patchecko_core::dynsource::DynProfile`) change so stale on-disk
/// caches miss instead of serving wrong vectors.
///
/// v2: the persisted form carries a per-entry structural checksum
/// (`crate::store`), so v1 caches are discarded on load.
///
/// v3: the store grows a dynamic lane (`dyn_artifacts.json` — cached
/// environment sets and dynamic profiles, see `crate::store`); v2
/// static caches are discarded on load rather than mixed with
/// dynamic-lane entries keyed under a different version.
///
/// v4: VM correctness fixes change cached dynamic profiles — `LoadStr`
/// with an out-of-range string id and `FBin` with an integer-only
/// operator now fault (`BadString`/`BadFloatOp`) instead of silently
/// producing offset-0 / `0.0` — and env-set generation became
/// edge-coverage-guided, so cached environment sets shrink. v3 dynamic
/// entries would replay the old semantics; discard them. (The engine
/// choice itself is deliberately NOT keyed: both engines produce
/// bitwise-identical profiles.)
///
/// v5: all three cache files share one document shape
/// (`{schema, entries: {hex: {checksum, value}}}`, see `crate::lane`), and
/// the dynamic file holds env sets and profiles in one map of tagged
/// entries. v4 documents are discarded on load as stale.
pub const SCHEMA_VERSION: u32 = 5;

/// A 128-bit content hash naming one function's cached artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArtifactKey {
    /// High 64 bits.
    pub hi: u64,
    /// Low 64 bits.
    pub lo: u64,
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const FNV_OFFSET_HI: u64 = 0xcbf2_9ce4_8422_2325;
// Independent second lane: a different non-zero offset basis decorrelates
// the two 64-bit FNV streams enough for a corpus-scale 128-bit name.
const FNV_OFFSET_LO: u64 = 0x6c62_272e_07bb_0142;

pub(crate) struct Fnv2 {
    pub(crate) hi: u64,
    pub(crate) lo: u64,
}

impl Fnv2 {
    pub(crate) fn new() -> Fnv2 {
        Fnv2 { hi: FNV_OFFSET_HI, lo: FNV_OFFSET_LO }
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hi = (self.hi ^ b as u64).wrapping_mul(FNV_PRIME);
            self.lo = (self.lo ^ b.rotate_left(3) as u64).wrapping_mul(FNV_PRIME);
        }
    }

    pub(crate) fn update_u32(&mut self, v: u32) {
        self.update(&v.to_le_bytes());
    }

    pub(crate) fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }
}

fn arch_tag(arch: Arch) -> u8 {
    match arch {
        Arch::X86 => 0,
        Arch::Amd64 => 1,
        Arch::Arm32 => 2,
        Arch::Arm64 => 3,
    }
}

impl ArtifactKey {
    /// Key of function `idx` of `bin`.
    pub fn for_function(bin: &Binary, idx: usize) -> ArtifactKey {
        let rec = &bin.functions[idx];
        let mut h = Fnv2::new();
        h.update_u32(SCHEMA_VERSION);
        h.update(&[arch_tag(bin.arch), rec.exported as u8, rec.n_params]);
        h.update_u32(rec.frame_slots);
        // No-return import indices shape the CFG (ExternNoRet typing).
        let noret = disasm::noreturn_imports(bin);
        h.update_u32(noret.len() as u32);
        for i in noret {
            h.update_u32(i);
        }
        h.update_u32(rec.code.len() as u32);
        h.update(&rec.code);
        ArtifactKey { hi: h.hi, lo: h.lo }
    }

    /// Key of the environment set the dynamic stage derives from
    /// `reference`'s function 0 under `fuzz` and `vm`.
    ///
    /// Hashes the reference-function content key (so a recompiled or
    /// different reference misses), every fuzzer knob (the generated
    /// environments are a pure function of them), and the interpreter
    /// limits (survival filtering executes the reference, so limits shape
    /// which environments survive).
    pub fn for_env_set(reference: &Binary, fuzz: &FuzzConfig, vm: &VmConfig) -> ArtifactKey {
        let base = ArtifactKey::for_function(reference, 0);
        let mut h = Fnv2::new();
        h.update_u32(SCHEMA_VERSION);
        h.update(b"envset");
        h.update_u64(base.hi);
        h.update_u64(base.lo);
        h.update_u64(fuzz.rounds as u64);
        h.update_u64(fuzz.max_len as u64);
        h.update_u64(fuzz.num_envs as u64);
        h.update_u64(fuzz.seed);
        h.update_u64(fuzz.extra_args.len() as u64);
        for &a in &fuzz.extra_args {
            h.update_u64(a as u64);
        }
        h.update_u64(vm.max_instructions);
        h.update_u64(vm.max_depth as u64);
        h.update_u64(vm.heap_limit as u64);
        ArtifactKey { hi: h.hi, lo: h.lo }
    }

    /// Key of the dynamic profile of function `func` of `target` over an
    /// environment set with content fingerprint `env_fingerprint`
    /// (`patchecko_core::dynsource::EnvSet::fingerprint`, which already
    /// digests the interpreter limits and every environment's contents).
    pub fn for_dyn_profile(
        target: &Binary,
        func: usize,
        env_fingerprint: (u64, u64),
    ) -> ArtifactKey {
        let base = ArtifactKey::for_function(target, func);
        let mut h = Fnv2::new();
        h.update_u32(SCHEMA_VERSION);
        h.update(b"dynprof");
        h.update_u64(base.hi);
        h.update_u64(base.lo);
        h.update_u64(env_fingerprint.0);
        h.update_u64(env_fingerprint.1);
        ArtifactKey { hi: h.hi, lo: h.lo }
    }

    /// This key translated into a tenant's cache namespace: each half is
    /// XORed with the corresponding half of `salt`. XOR with a fixed salt
    /// is a bijection on the 128-bit key space, so within one namespace
    /// keys collide exactly when the underlying content keys collide, and
    /// distinct salts map the same content to disjoint names. The zero
    /// salt (see [`tenant_salt`]) is the identity — unsalted callers and
    /// the anonymous tenant share the base namespace.
    pub fn namespaced(self, salt: (u64, u64)) -> ArtifactKey {
        ArtifactKey { hi: self.hi ^ salt.0, lo: self.lo ^ salt.1 }
    }

    /// 32-character lowercase hex form (the on-disk map key).
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// Parse [`ArtifactKey::to_hex`] output: exactly 32 ASCII hex digits
    /// (anything else — a sign, whitespace, a multi-byte character — is
    /// `None`, never a panic, since cache-file keys are untrusted).
    pub fn from_hex(s: &str) -> Option<ArtifactKey> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(ArtifactKey { hi, lo })
    }

    /// Shard selector in `[0, shards)`.
    pub fn shard(self, shards: usize) -> usize {
        (self.lo as usize) % shards.max(1)
    }
}

/// Cache-namespace salt for a tenant id: a domain-separated `Fnv2`
/// digest of the tenant name, with the empty tenant mapped to the zero
/// salt so anonymous (CLI, single-tenant) callers address the base
/// namespace unchanged. Applied via [`ArtifactKey::namespaced`].
pub fn tenant_salt(tenant: &str) -> (u64, u64) {
    if tenant.is_empty() {
        return (0, 0);
    }
    let mut h = Fnv2::new();
    h.update(b"tenant-ns");
    h.update(tenant.as_bytes());
    (h.hi, h.lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testfix::keyed_binary as sample_binary;
    use fwbin::isa::OptLevel;
    use fwlang::gen::Generator;

    #[test]
    fn keys_distinguish_functions_and_arches() {
        let bin = sample_binary();
        let mut keys: Vec<ArtifactKey> =
            (0..bin.function_count()).map(|i| ArtifactKey::for_function(&bin, i)).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), bin.function_count(), "all functions hash distinctly");

        let lib = Generator::new(11).library_sized("libk", 8);
        let other = fwbin::compile_library(&lib, Arch::X86, OptLevel::O2).unwrap();
        assert_ne!(
            ArtifactKey::for_function(&bin, 0),
            ArtifactKey::for_function(&other, 0),
            "same source, different arch, different key"
        );
    }

    #[test]
    fn key_is_stable_across_wire_roundtrip() {
        let bin = sample_binary();
        let back = Binary::from_bytes(&bin.to_bytes()).unwrap();
        for i in 0..bin.function_count() {
            assert_eq!(ArtifactKey::for_function(&bin, i), ArtifactKey::for_function(&back, i));
        }
    }

    #[test]
    fn dyn_keys_are_input_sensitive() {
        let bin = sample_binary();
        let fuzz = FuzzConfig::default();
        let vmc = VmConfig::default();
        let k = ArtifactKey::for_env_set(&bin, &fuzz, &vmc);
        assert_eq!(k, ArtifactKey::for_env_set(&bin, &fuzz, &vmc), "deterministic");
        let reseeded = FuzzConfig { seed: fuzz.seed + 1, ..fuzz.clone() };
        assert_ne!(ArtifactKey::for_env_set(&bin, &reseeded, &vmc), k, "fuzz knobs hashed");
        let tighter = VmConfig { max_instructions: 1, ..vmc };
        assert_ne!(ArtifactKey::for_env_set(&bin, &fuzz, &tighter), k, "vm limits hashed");

        let p = ArtifactKey::for_dyn_profile(&bin, 0, (1, 2));
        assert_ne!(ArtifactKey::for_dyn_profile(&bin, 1, (1, 2)), p, "function hashed");
        assert_ne!(ArtifactKey::for_dyn_profile(&bin, 0, (1, 3)), p, "fingerprint hashed");
        assert_ne!(p, k, "lanes are domain-separated");
    }

    #[test]
    fn tenant_salts_partition_the_key_space() {
        let bin = sample_binary();
        let k = ArtifactKey::for_function(&bin, 0);

        // Empty tenant is the identity namespace.
        assert_eq!(tenant_salt(""), (0, 0));
        assert_eq!(k.namespaced(tenant_salt("")), k);

        // Distinct tenants relocate the same content to distinct names,
        // deterministically, and the mapping is invertible.
        let acme = tenant_salt("acme");
        let rival = tenant_salt("rival");
        assert_ne!(acme, rival);
        assert_eq!(tenant_salt("acme"), acme, "salt is deterministic");
        assert_ne!(k.namespaced(acme), k);
        assert_ne!(k.namespaced(acme), k.namespaced(rival));
        assert_eq!(k.namespaced(acme).namespaced(acme), k, "XOR salting inverts");

        // Within one namespace, distinct content stays distinct.
        let k1 = ArtifactKey::for_function(&bin, 1);
        assert_ne!(k.namespaced(acme), k1.namespaced(acme));
    }

    #[test]
    fn hex_roundtrip() {
        let k = ArtifactKey { hi: 0x0123_4567_89ab_cdef, lo: 0xfedc_ba98_7654_3210 };
        assert_eq!(ArtifactKey::from_hex(&k.to_hex()), Some(k));
        assert_eq!(ArtifactKey::from_hex("nope"), None);
        assert_eq!(ArtifactKey::from_hex(&"0".repeat(31)), None);
    }

    #[test]
    fn from_hex_rejects_non_hex_bytes_without_panicking() {
        // 32 bytes, but byte 16 falls inside the two-byte 'é'.
        let split_char = format!("{}é{}", "0".repeat(15), "0".repeat(15));
        assert_eq!(split_char.len(), 32);
        assert_eq!(ArtifactKey::from_hex(&split_char), None);
        // `from_str_radix` would accept a leading sign on either half.
        assert_eq!(ArtifactKey::from_hex(&format!("+{}", "0".repeat(31))), None);
        assert_eq!(ArtifactKey::from_hex(&format!("{}+{}", "0".repeat(16), "0".repeat(15))), None);
        assert_eq!(ArtifactKey::from_hex(&format!("{} ", "0".repeat(31))), None);
    }
}
