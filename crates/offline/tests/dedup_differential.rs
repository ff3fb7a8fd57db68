//! `Dedup` against a plain `FxHashMap<StateKey, StateId>` reference.
//!
//! The stream mimics the FTF sweep: a current bucket `c` only grows, keys
//! arrive tagged with their position sum in `c ..= c + ring - 1`, and
//! each key is interned in the ring table of its sum. When `c` advances,
//! bucket `c`'s table is cleared — no key of that sum arrives again. A
//! single map over every key must then agree with the ring on every id
//! and every `is_new`, in both arena representations.

use mcp_core::FxHashMap;
use mcp_offline::{Dedup, StateArena, StateId};
use proptest::prelude::*;

type StateKey = (u64, Box<[u32]>);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn ring_of_tables_matches_one_global_map(
        cores in 1usize..=4,
        ring in 1usize..=7,
        // (advance when 0, configuration, positions of up to four cores)
        stream in prop::collection::vec((0u8..7, 0u64..4, prop::collection::vec(1u32..=6, 4)), 1..400),
    ) {
        for force_spill in [false, true] {
            let mut arena = StateArena::new(cores, 6, force_spill);
            let mut tables: Vec<Dedup> = (0..ring).map(|_| Dedup::new()).collect();
            let mut reference: FxHashMap<StateKey, StateId> = FxHashMap::default();
            let mut current = cores; // the smallest position sum
            for (op, cfg, pos) in &stream {
                if *op == 0 {
                    tables[current % ring].clear();
                    current += 1;
                    continue;
                }
                let pos = &pos[..cores];
                let sum: usize = pos.iter().map(|&x| x as usize).sum();
                if sum < current || sum >= current + ring {
                    continue; // not pending in this window
                }
                let pp = arena.pack(pos);
                let got = tables[sum % ring].intern(&mut arena, *cfg, &pp);
                let key: StateKey = (*cfg, pos.into());
                let next = reference.len() as StateId;
                let is_new = !reference.contains_key(&key);
                let id = *reference.entry(key.clone()).or_insert(next);
                prop_assert_eq!(got, (id, is_new), "key {:?} (spill={})", key, force_spill);
                prop_assert_eq!(arena.key(got.0), key);
            }
            prop_assert_eq!(arena.len(), reference.len());
            for table in &tables {
                prop_assert!(table.load_factor() <= 0.75);
                prop_assert!(table.peak_load() <= 0.75);
            }
        }
    }
}

#[test]
fn growth_keeps_every_registered_id() {
    // Thousands of keys in one table force many growths; every key must
    // still resolve to its first id afterwards.
    for force_spill in [false, true] {
        let mut arena = StateArena::new(3, 4095, force_spill);
        let mut table = Dedup::new();
        let keys: Vec<(u64, [u32; 3])> = (0..5000u32)
            .map(|i| (u64::from(i % 7), [1 + i % 4000, 1 + i / 7 % 13, 1 + i % 3]))
            .collect();
        let first: Vec<(StateId, bool)> = keys
            .iter()
            .map(|(cfg, pos)| {
                let pp = arena.pack(pos);
                table.intern(&mut arena, *cfg, &pp)
            })
            .collect();
        for ((cfg, pos), (id, _)) in keys.iter().zip(&first) {
            let pp = arena.pack(pos);
            assert_eq!(table.intern(&mut arena, *cfg, &pp), (*id, false));
        }
        assert_eq!(table.len(), arena.len());
        assert!(table.peak_load() > 0.5 && table.peak_load() <= 0.75);
    }
}
