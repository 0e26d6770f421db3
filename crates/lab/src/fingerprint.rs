//! Stable fingerprints: the content addresses of the result store.
//!
//! A grid cell's identity is everything that can change its payload:
//!
//! * the **canonical run options** ([`bvl_exec::RunOptions::canonical`]) —
//!   seed, trace flag, clock base, budget, fault label;
//! * the **domain point** — experiment name, sweep domain, index within
//!   the domain, and the cell's parameter string;
//! * the **fault-plan repro line** when the cell runs under an adversary
//!   (the same one-line serialization `bvl_fault::Case::repro` prints);
//! * the **code fingerprint** — a digest of the public-API inventory
//!   (`docs/public-api.txt`, embedded at compile time) and the workspace
//!   crate version, so a store written by older code is detectably stale.
//!
//! Hashes are FNV-1a over the canonical byte strings, two independent
//! 64-bit lanes concatenated to 128 bits. The algorithm is spelled out
//! here (not delegated to `DefaultHasher`) because keys must be stable
//! across processes, architectures and Rust releases: a key is an on-disk
//! address, not an in-memory optimization.

use std::fmt;

const FNV_OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_OFFSET_B: u64 = 0x6c62_272e_07bb_0142; // FNV-1a 128 offset, low lane
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// A 128-bit content fingerprint, displayed as 32 lowercase hex digits.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub u64, pub u64);

impl Digest {
    /// Digest a sequence of labelled components. Each component is framed
    /// (`label` `=` payload `\n`) so that component boundaries cannot be
    /// confused: `("a", "bc")` and `("ab", "c")` hash differently.
    pub fn of(components: &[(&str, &str)]) -> Digest {
        let mut a = FNV_OFFSET_A;
        let mut b = FNV_OFFSET_B;
        for (label, payload) in components {
            for part in [label.as_bytes(), b"=", payload.as_bytes(), b"\n"] {
                a = fnv1a(a, part);
                b = fnv1a(b.rotate_left(29), part);
            }
        }
        Digest(a, b)
    }

    /// The 32-hex-digit string form (the on-disk key): each lane's 16
    /// nibbles, most significant first, looked up in a digit table.
    pub fn hex(&self) -> String {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut out = String::with_capacity(32);
        for lane in [self.0, self.1] {
            for shift in (0..64).step_by(4).rev() {
                out.push(char::from(HEX[(lane >> shift) as usize & 0xf]));
            }
        }
        out
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hex())
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.hex())
    }
}

/// The public-API inventory this binary was compiled against, embedded so
/// the code fingerprint is a compile-time constant: every process built
/// from the same tree reports the same fingerprint, with no dependence on
/// the working directory at run time.
pub const API_INVENTORY: &str = include_str!("../../../docs/public-api.txt");

/// Digest of the code generation that wrote (or is reading) a store.
///
/// Two builds agree on their `CodeFingerprint` exactly when they agree on
/// the public-API inventory and the workspace crate version — the signal
/// the store uses to decide whether cached cells are still trustworthy.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CodeFingerprint(pub String);

impl CodeFingerprint {
    /// The fingerprint of the running binary.
    pub fn current() -> CodeFingerprint {
        CodeFingerprint::from_parts(API_INVENTORY, env!("CARGO_PKG_VERSION"))
    }

    /// Build a fingerprint from explicit parts (tests inject counterfactual
    /// inventories to prove the fingerprint moves when the API does).
    pub fn from_parts(api_inventory: &str, versions: &str) -> CodeFingerprint {
        CodeFingerprint(
            Digest::of(&[("api", api_inventory), ("versions", versions)]).hex(),
        )
    }

    /// The hex digest.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for CodeFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// The content address of one grid cell.
///
/// `opts_canonical` is [`bvl_exec::RunOptions::canonical`]; `plan` is the
/// fault-plan line for adversarial cells (`None` hashes distinctly from
/// `Some("")`).
pub fn cell_key(
    code: &CodeFingerprint,
    exp: &str,
    domain: &str,
    index: usize,
    params: &str,
    opts_canonical: &str,
    plan: Option<&str>,
) -> String {
    let mut digits = [0u8; 20];
    Digest::of(&[
        ("code", code.as_str()),
        ("exp", exp),
        ("domain", domain),
        ("index", decimal(index, &mut digits)),
        ("params", params),
        ("opts", opts_canonical),
        ("plan", plan.unwrap_or("\u{1}none")),
    ])
    .hex()
}

/// `n` in decimal, written at the end of `buf` (20 digits hold any
/// 64-bit value): the bytes `n.to_string()` holds, without allocating.
fn decimal(mut n: usize, buf: &mut [u8; 20]) -> &str {
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[start..]).expect("ASCII digits")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn hex_matches_the_formatter(a in 0..=u64::MAX, b in 0..=u64::MAX, shift in 0u32..64) {
            // Shifted lanes have leading zero nibbles.
            for (a, b) in [(a, b), (a >> shift, b >> (63 - shift))] {
                prop_assert_eq!(Digest(a, b).hex(), format!("{a:016x}{b:016x}"));
            }
        }

        #[test]
        fn decimal_matches_to_string(n in 0..=usize::MAX, shift in 0u32..64) {
            for n in [n, n >> shift] {
                let mut buf = [0; 20];
                prop_assert_eq!(decimal(n, &mut buf), n.to_string());
            }
        }
    }

    #[test]
    fn hex_and_decimal_edges() {
        assert_eq!(Digest(0, u64::MAX).hex(), format!("{:016x}{:016x}", 0, u64::MAX));
        assert_eq!(Digest(1 << 63, 0xf).hex(), format!("{:016x}{:016x}", 1u64 << 63, 0xf));
        for n in [0, 9, 10, 99, 100, usize::MAX] {
            assert_eq!(decimal(n, &mut [0; 20]), n.to_string());
        }
    }

    #[test]
    fn digest_is_stable_across_processes() {
        // Golden value: the algorithm is an on-disk contract. If this test
        // breaks, every existing store is invalidated — change the store
        // FORMAT version alongside, don't just update the literal.
        assert_eq!(
            Digest::of(&[("k", "v")]).hex(),
            "709230d647e7d8c920c8d4af10cdaca9"
        );
    }

    #[test]
    fn digest_frames_component_boundaries() {
        assert_ne!(Digest::of(&[("a", "bc")]), Digest::of(&[("ab", "c")]));
        assert_ne!(
            Digest::of(&[("a", "b"), ("c", "d")]),
            Digest::of(&[("a", "b=c\nd")])
        );
    }

    #[test]
    fn cell_key_depends_on_every_component() {
        let code = CodeFingerprint::from_parts("api", "0.1.0");
        let base = cell_key(&code, "e", "d", 0, "p", "o", None);
        assert_eq!(base, cell_key(&code, "e", "d", 0, "p", "o", None));
        assert_ne!(base, cell_key(&code, "e2", "d", 0, "p", "o", None));
        assert_ne!(base, cell_key(&code, "e", "d2", 0, "p", "o", None));
        assert_ne!(base, cell_key(&code, "e", "d", 1, "p", "o", None));
        assert_ne!(base, cell_key(&code, "e", "d", 0, "p2", "o", None));
        assert_ne!(base, cell_key(&code, "e", "d", 0, "p", "o2", None));
        assert_ne!(base, cell_key(&code, "e", "d", 0, "p", "o", Some("")));
        let other = CodeFingerprint::from_parts("api CHANGED", "0.1.0");
        assert_ne!(base, cell_key(&other, "e", "d", 0, "p", "o", None));
    }

    #[test]
    fn code_fingerprint_moves_with_the_inventory_and_version() {
        let a = CodeFingerprint::from_parts("pub fn f", "0.1.0");
        assert_eq!(a, CodeFingerprint::from_parts("pub fn f", "0.1.0"));
        assert_ne!(a, CodeFingerprint::from_parts("pub fn g", "0.1.0"));
        assert_ne!(a, CodeFingerprint::from_parts("pub fn f", "0.2.0"));
        // And the embedded inventory is non-trivial.
        assert!(API_INVENTORY.len() > 1000);
        assert_eq!(CodeFingerprint::current().as_str().len(), 32);
    }
}
