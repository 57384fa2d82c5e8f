//! The heap footprint of the cached post-transform artifacts.
//!
//! A counting global allocator (this test binary only) measures the heap
//! blocks and bytes each registry kernel's tile program, multi-tile program
//! and mapping graph hold, at 1 and 4 tiles, both as the flow built them
//! and as the disk tier's codec decodes them.  The counts depend on the
//! data layout alone, not on the host, so the test gates the shape of the
//! artifacts the cache keeps resident: a constant number of blocks per tile,
//! and a byte total well below the nested layout's.
//!
//! `cargo test --test artifact_footprint -- --nocapture` prints the table.

use fpfa::core::cache::PostTransformArtifacts;
use fpfa::core::codec::{decode_post_transform, encode_post_transform};
use fpfa::core::pipeline::Mapper;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts the live heap blocks and bytes of the current thread.
struct Counting;

thread_local! {
    static LIVE: Cell<(isize, isize)> = const { Cell::new((0, 0)) };
}

fn track(blocks: isize, bytes: isize) {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = LIVE.try_with(|live| {
        let (b, n) = live.get();
        live.set((b + blocks, n + bytes));
    });
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// thread-local cells that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(1, layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(1, layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-1, -(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(0, new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap blocks and bytes held by one artifact.
#[derive(Clone, Copy, Default, Debug)]
struct Footprint {
    blocks: usize,
    bytes: usize,
}

impl std::ops::AddAssign for Footprint {
    fn add_assign(&mut self, other: Footprint) {
        self.blocks += other.blocks;
        self.bytes += other.bytes;
    }
}

/// What dropping `value` gives back to the heap: the blocks and bytes it
/// held.
fn held<T>(value: T) -> Footprint {
    let (blocks, bytes) = LIVE.with(Cell::get);
    drop(value);
    let (after_blocks, after_bytes) = LIVE.with(Cell::get);
    Footprint {
        blocks: (blocks - after_blocks) as usize,
        bytes: (bytes - after_bytes) as usize,
    }
}

/// The value behind an artifact's only reference.
fn unique<T>(artifact: Arc<T>) -> T {
    Arc::try_unwrap(artifact).unwrap_or_else(|_| panic!("the artifact is shared"))
}

/// The footprints of one mapping's artifacts.
#[derive(Clone, Copy, Default, Debug)]
struct Artifacts {
    /// The tile program (tile 0's for a multi-tile mapping).
    program: Footprint,
    /// The multi-tile program, all tiles and the array-level tables.
    multi: Footprint,
    /// The mapping graph.
    graph: Footprint,
}

impl Artifacts {
    fn measure(artifacts: PostTransformArtifacts) -> Self {
        let PostTransformArtifacts {
            graph,
            clustered,
            schedule,
            program,
            multi,
            ..
        } = artifacts;
        drop((clustered, schedule));
        let multi = multi.map_or_else(Footprint::default, |multi| held(unique(multi).program));
        Artifacts {
            program: held(unique(program)),
            multi,
            graph: held(unique(graph)),
        }
    }

    fn total(&self) -> Footprint {
        let mut total = self.program;
        total += self.multi;
        total += self.graph;
        total
    }
}

/// At most this many heap blocks per tile, for a tile program, for each tile
/// of a multi-tile program, and for a mapping graph.
const BLOCKS_PER_TILE: usize = 16;

/// The registry's combined bytes under the nested layout (measured by this
/// test on the layout it replaced), as built and as decoded.
const NESTED_BYTES: [usize; 2] = [1_480_136, 1_134_224];

#[test]
fn cached_artifacts_hold_a_few_exactly_sized_blocks() {
    let registry = fpfa::workloads::registry();
    let mut combined = [Footprint::default(); 2];
    let mut worst = Vec::new();
    println!(
        "{:<12} {:>5}  {:>16} {:>16} {:>16}  {:>16} {:>16} {:>16}",
        "kernel",
        "tiles",
        "program",
        "multi",
        "graph",
        "decoded program",
        "decoded multi",
        "decoded graph"
    );
    for tiles in [1, 4] {
        let mapper = Mapper::new().with_tiles(tiles);
        for kernel in &registry {
            let mapping = mapper.map_source(&kernel.source).unwrap();
            let artifacts = PostTransformArtifacts::of(&mapping);
            drop(mapping);
            let record = encode_post_transform(&artifacts);
            let built = Artifacts::measure(artifacts);
            let decoded = Artifacts::measure(decode_post_transform(&record).unwrap());
            let cell = |f: Footprint| format!("{:>7} B {:>4} bl", f.bytes, f.blocks);
            println!(
                "{:<12} {tiles:>5}  {} {} {}  {} {} {}",
                kernel.name,
                cell(built.program),
                cell(built.multi),
                cell(built.graph),
                cell(decoded.program),
                cell(decoded.multi),
                cell(decoded.graph)
            );
            for (side, artifacts) in [("built", built), ("decoded", decoded)] {
                let multi_tiles = if tiles > 1 { tiles } else { 0 };
                for (what, footprint, bound) in [
                    ("program", artifacts.program, BLOCKS_PER_TILE),
                    ("multi", artifacts.multi, BLOCKS_PER_TILE * multi_tiles),
                    ("graph", artifacts.graph, BLOCKS_PER_TILE),
                ] {
                    if footprint.blocks > bound {
                        worst.push(format!(
                            "{} at {tiles} tile(s), {side} {what}: {} blocks, bound {bound}",
                            kernel.name, footprint.blocks
                        ));
                    }
                }
            }
            combined[0] += built.total();
            combined[1] += decoded.total();
        }
    }
    println!(
        "registry total: {} B in {} blocks as built, {} B in {} blocks as decoded",
        combined[0].bytes, combined[0].blocks, combined[1].bytes, combined[1].blocks
    );
    assert!(
        worst.is_empty(),
        "artifacts over the block bound:\n{}",
        worst.join("\n")
    );
    for ((side, total), nested) in ["built", "decoded"].iter().zip(combined).zip(NESTED_BYTES) {
        assert!(
            total.bytes * 100 <= nested * 55,
            "{side}: {} B, not at least 45% below the nested layout's {nested} B",
            total.bytes
        );
    }
}
