//! `ChunkMap` model tests: the flat chunked directory must behave exactly
//! like an ordered map under any interleaving of inserts, removes and
//! lookups — including the directory-collision, growth and extreme-key edges
//! the unit tests cannot reach generically. The interleaved model also
//! drives a `SlabDirectory`, the word form of the same directory.

use std::collections::BTreeMap;

use aikido_types::chunkmap::{ChunkMap, CHUNK_LEN};
use aikido_types::{ShadowWord, SlabDirectory};
use proptest::prelude::*;

/// The largest chunk index is `u64::MAX >> CHUNK_BITS`; the directory's
/// empty tag is `u64::MAX`, which no real chunk can collide with. These keys
/// sit on that boundary.
fn max_adjacent_keys() -> Vec<u64> {
    vec![
        u64::MAX,
        u64::MAX - 1,
        u64::MAX - (CHUNK_LEN as u64 - 1), // first slot of the last chunk
        u64::MAX - (CHUNK_LEN as u64),     // last slot of the chunk before it
        (u64::MAX >> 1) + 1,
        0,
    ]
}

#[test]
fn u64_max_adjacent_keys_roundtrip() {
    let mut m = ChunkMap::new();
    let keys = max_adjacent_keys();
    for (i, &k) in keys.iter().enumerate() {
        assert_eq!(m.insert(k, i), None, "key {k:#x}");
    }
    assert_eq!(m.len(), keys.len());
    for (i, &k) in keys.iter().enumerate() {
        assert_eq!(m.get(k), Some(&i), "key {k:#x}");
    }
    // Ascending iteration must order the extremes correctly.
    let iterated: Vec<u64> = m.iter().map(|(k, _)| k).collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(iterated, sorted);
    for &k in &keys {
        assert!(m.remove(k).is_some(), "key {k:#x}");
    }
    assert!(m.is_empty());
}

#[test]
fn colliding_chunks_survive_removal_and_reinsertion() {
    // Chunks i*64 all probe to directory slot 0 at the initial directory
    // size of 64; removing entries leaves the chunk allocated (tombstone-free
    // probing), so later lookups and reinserts must keep working through the
    // whole collision chain.
    let mut m = ChunkMap::new();
    let key = |i: u64| i * 64 * CHUNK_LEN as u64;
    for i in 0..8 {
        m.insert(key(i), i);
    }
    // Empty out the middle of the chain.
    for i in 2..6 {
        assert_eq!(m.remove(key(i)), Some(i));
    }
    // The chain must still reach entries past the emptied chunks...
    for i in 6..8 {
        assert_eq!(m.get(key(i)), Some(&i));
    }
    // ...and the emptied chunks must answer lookups and accept reinserts.
    for i in 2..6 {
        assert_eq!(m.get(key(i)), None);
        assert_eq!(m.insert(key(i), 100 + i), None);
    }
    for i in 0..8 {
        let expected = if (2..6).contains(&i) { 100 + i } else { i };
        assert_eq!(m.get(key(i)), Some(&expected));
    }
}

#[test]
fn growth_with_a_collision_chain_preserves_every_entry() {
    // Force directory growth (load factor 70% of 64) while most chunks
    // collide into few home slots, then verify every key survived the rehash.
    let mut m = ChunkMap::new();
    let mut keys = Vec::new();
    for i in 0..60u64 {
        // Two colliding families plus a scattered one.
        let chunk = match i % 3 {
            0 => i * 64,
            1 => i * 64 + 1,
            _ => i.wrapping_mul(0x9E37_79B9) & 0xFFFF,
        };
        let k = chunk * CHUNK_LEN as u64 + (i % CHUNK_LEN as u64);
        if m.insert(k, i).is_none() {
            keys.push((k, i));
        }
    }
    for &(k, v) in &keys {
        assert_eq!(m.get(k), Some(&v), "key {k:#x} lost in growth");
    }
}

/// One step of the interleaved workload.
#[derive(Clone, Debug)]
enum Op {
    Insert(u64, u32),
    Remove(u64),
    Get(u64),
}

/// Keys drawn to collide aggressively: few distinct chunks, slots clustered
/// at chunk edges, plus the `u64::MAX`-adjacent extremes.
fn arb_key() -> impl Strategy<Value = u64> {
    let chunk = prop::sample::select(vec![
        0u64,
        1,
        64,
        128,
        0x1000,
        (u64::MAX >> 9) - 1,
        u64::MAX >> 9,
    ]);
    let slot = prop::sample::select(vec![0u64, 1, 255, 510, 511]);
    (chunk, slot).prop_map(|(c, s)| c.saturating_mul(CHUNK_LEN as u64).saturating_add(s))
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u8..3, arb_key(), any::<u32>()).prop_map(|(kind, key, val)| match kind {
            0 => Op::Insert(key, val),
            1 => Op::Remove(key),
            _ => Op::Get(key),
        }),
        0..400,
    )
}

/// The word a `SlabDirectory` stores for model value `v`: non-zero, since
/// the zero word means "absent".
fn word_of(v: u32) -> u64 {
    u64::from(v) + 1
}

proptest! {
    /// Any interleaving of inserts/removes/gets matches a `BTreeMap` model:
    /// same return values, same length, same sorted iteration. A
    /// `SlabDirectory` runs the same ops beside the `ChunkMap`, storing a
    /// non-zero word per insert and the empty word per remove.
    #[test]
    fn interleaved_ops_match_a_btreemap_model(ops in arb_ops()) {
        let mut map: ChunkMap<u32> = ChunkMap::new();
        let mut words = SlabDirectory::new();
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        for op in &ops {
            let key = match *op {
                Op::Insert(k, _) | Op::Remove(k) | Op::Get(k) => k,
            };
            prop_assert_eq!(words.get(key).raw(), model.get(&key).map_or(0, |&v| word_of(v)));
            match *op {
                Op::Insert(k, v) => {
                    words.set(k, ShadowWord::from_raw(word_of(v)));
                    prop_assert_eq!(map.insert(k, v), model.insert(k, v));
                }
                Op::Remove(k) => {
                    words.set(k, ShadowWord::EMPTY);
                    prop_assert_eq!(map.remove(k), model.remove(&k));
                }
                Op::Get(k) => prop_assert_eq!(map.get(k), model.get(&k)),
            }
            prop_assert_eq!(words.get(key).raw(), model.get(&key).map_or(0, |&v| word_of(v)));
            prop_assert_eq!(map.len(), model.len());
            prop_assert_eq!(map.is_empty(), model.is_empty());
            prop_assert_eq!(words.len(), model.len());
            prop_assert_eq!(words.is_empty(), model.is_empty());
        }
        let flattened: Vec<(u64, u32)> = map.iter().map(|(k, &v)| (k, v)).collect();
        let expected: Vec<(u64, u32)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(flattened, expected);
        let flattened: Vec<(u64, u64)> = words.iter_nonempty().map(|(k, w)| (k, w.raw())).collect();
        let expected: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, word_of(v))).collect();
        prop_assert_eq!(flattened, expected);
    }
}
