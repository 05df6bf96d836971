//! Input fingerprints: row count, arity and an FNV-1a hash of every value,
//! checked against `frozen.json` so that a drifting generator fails the run
//! instead of silently moving the numbers.

use gj_storage::Relation;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(FNV_OFFSET, |h, b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub rows: usize,
    pub arity: usize,
    pub hash: u64,
}

impl Fingerprint {
    pub fn of(relation: &Relation) -> Fingerprint {
        let header = [relation.arity() as u64, relation.len() as u64];
        let bytes = header
            .into_iter()
            .flat_map(u64::to_le_bytes)
            .chain(relation.flat_values().iter().flat_map(|v| v.to_le_bytes()));
        Fingerprint { rows: relation.len(), arity: relation.arity(), hash: fnv1a(bytes) }
    }

    /// `rows x arity : hash`, the form stored in `frozen.json`.
    pub fn render(&self) -> String {
        format!("{}x{}:{:016x}", self.rows, self.arity, self.hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_published_vectors() {
        assert_eq!(fnv1a([]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(*b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(*b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fingerprint_sees_values_shape_and_nothing_else() {
        let a = Relation::from_flat(2, vec![1, 2, 3, 4]);
        let same = Relation::from_rows(2, vec![vec![3, 4], vec![1, 2]]);
        assert_eq!(Fingerprint::of(&a), Fingerprint::of(&same), "row order is canonical");
        let other_value = Relation::from_flat(2, vec![1, 2, 3, 5]);
        assert_ne!(Fingerprint::of(&a).hash, Fingerprint::of(&other_value).hash);
        // Same values, another shape.
        let reshaped = Relation::from_flat(1, vec![1, 2, 3, 4]);
        assert_ne!(Fingerprint::of(&a).hash, Fingerprint::of(&reshaped).hash);
        assert_eq!(Fingerprint::of(&a).render().len(), "2x2:".len() + 16);
    }
}
