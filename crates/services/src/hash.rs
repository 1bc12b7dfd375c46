//! Stable hashing shared across the workspace: FNV-1a for fingerprints
//! and shard choice, splitmix64 for mixing. Both are seedless and
//! identical on every run and platform, unlike `DefaultHasher`.

/// FNV-1a 64-bit offset basis: the hash of the empty input.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// The multiplier of [`fnv1a_wide`]: the FNV prime with one extra hex
/// zero (`0x1000_0000_01b3`). Still odd, so each step stays a
/// bijection.
const WIDE_PRIME: u64 = 0x0000_1000_0000_01b3;

fn fnv(prime: u64, mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(prime);
    }
    h
}

/// FNV-1a over `bytes`, continuing from `h` (start from
/// [`FNV_OFFSET`]). Chaining calls hashes the concatenation.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    fnv(FNV_PRIME, h, bytes)
}

/// FNV-1a's loop with a wider multiplier. The built-in services'
/// item values, the router's tenant placement and the store's access
/// keys were derived with it, and tests and recorded results pin those
/// outputs, so they keep it.
pub fn fnv1a_wide(h: u64, bytes: &[u8]) -> u64 {
    fnv(WIDE_PRIME, h, bytes)
}

/// One SplitMix64 mixing step.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        // Chaining hashes the concatenation.
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
    }

    #[test]
    fn fnv1a_wide_is_pinned() {
        assert_eq!(fnv1a_wide(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_wide(FNV_OFFSET, b"a"), 0xaf74_d84c_8601_ec8c);
        assert_eq!(fnv1a_wide(FNV_OFFSET, b"foobar"), 0xf8ac_2471_f739_67e8);
        assert_eq!(
            fnv1a_wide(FNV_OFFSET, b"galactic raiders"),
            0x92d0_429d_13fd_c909
        );
    }

    #[test]
    fn splitmix64_is_pinned() {
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(1), 0x910a_2dec_8902_5cc1);
        assert_eq!(splitmix64(0xdead_beef), 0x4adf_b90f_68c9_eb9b);
        assert_eq!(splitmix64(u64::MAX), 0xe4d9_7177_1b65_2c20);
    }
}
