//! The symbol table grows by segments while readers resolve symbols
//! without the interner's lock: a name must be readable by any thread the
//! moment its symbol exists, across segment boundaries, and must never
//! move afterwards.
//!
//! One test only: [`symbols::len`] is global, and a second test running on
//! another thread would intern into the same table.

use std::sync::mpsc;

use nyaya::core::symbols::{self, Symbol};

#[test]
fn names_round_trip_across_segments_while_the_table_grows() {
    // Segments hold 256, 512, 1 024, … slots, so 2 000 new names cross at
    // least three segment boundaries wherever the table stands now.
    const NEW: usize = 2_000;
    let name = |i: usize| format!("seg_test_{i}");
    let before = symbols::len();

    // What each reader saw while the table was still growing.
    let mut early: Vec<Vec<&'static str>> = Vec::new();
    let syms: Vec<Symbol> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (tx, rx) = mpsc::channel::<(usize, Symbol)>();
                let reader = scope.spawn(move || {
                    let mut seen = Vec::with_capacity(NEW);
                    for (i, sym) in rx {
                        assert_eq!(sym.as_str(), name(i), "symbol {}", sym.index());
                        assert_eq!(format!("{sym}"), name(i));
                        seen.push(sym.as_str());
                    }
                    seen
                });
                (tx, reader)
            })
            .collect();
        let syms: Vec<Symbol> = (0..NEW)
            .map(|i| {
                let sym = symbols::intern(&name(i));
                for (tx, _) in &readers {
                    tx.send((i, sym)).expect("reader hung up");
                }
                sym
            })
            .collect();
        for (tx, reader) in readers {
            drop(tx);
            early.push(reader.join().expect("reader panicked"));
        }
        syms
    });

    assert_eq!(symbols::len() - before, NEW, "one slot per new name");
    assert!(early.iter().all(|seen| seen.len() == NEW));
    let first = syms[0].index();
    for (i, &sym) in syms.iter().enumerate() {
        assert_eq!(
            sym.index(),
            first + i as u32,
            "indices are handed out in order"
        );
        assert_eq!(symbols::intern(&name(i)), sym, "re-interning finds it");
        assert_eq!(symbols::resolve(sym), name(i));
        for seen in &early {
            assert!(std::ptr::eq(seen[i], sym.as_str()), "a name never moves");
        }
    }
    assert_eq!(symbols::len() - before, NEW, "re-interning grows nothing");
}
