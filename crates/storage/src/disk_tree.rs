//! Disk-resident (clipped) R-tree: nodes live in a page store and every
//! traversal goes through the buffer pool. This is the Figure 15
//! substrate: query performance when the index greatly exceeds memory.

use cbb_core::{query_intersects_cbb, ClipPoint};
use cbb_geom::Rect;
use cbb_rtree::{Child, ClippedRTree, DataId, Node, NodeId};

use crate::buffer::BufferPool;
use crate::codec::{decode_node, encode_node};
use crate::pagestore::PageStore;

/// Query-time I/O summary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskQueryStats {
    /// Pages requested (node visits).
    pub page_requests: u64,
    /// Pool misses — actual reads from the store.
    pub page_faults: u64,
    /// Result objects.
    pub results: u64,
    /// Recursions avoided by clip points.
    pub clip_prunes: u64,
}

/// A read-only disk-resident clipped R-tree.
///
/// Node pages are remapped to dense page ids on persist; the clip table
/// (and nothing else) stays in memory, mirroring the paper's deployment
/// assumption.
pub struct DiskRTree<const D: usize> {
    root: u32,
    len: usize,
    /// In-memory auxiliary structure: clip points per page id.
    clips: Vec<Vec<ClipPoint<D>>>,
    pool: BufferPool,
}

impl<const D: usize> DiskRTree<D> {
    /// Persist a clipped tree into `store`; queries run through a pool of
    /// `pool_pages` frames.
    pub fn persist(source: &ClippedRTree<D>, store: &mut dyn PageStore, pool_pages: usize) -> Self {
        // Dense page-id remapping of live nodes.
        let live: Vec<NodeId> = source.tree.iter_nodes().map(|(id, _)| id).collect();
        let mut remap = std::collections::HashMap::with_capacity(live.len());
        for (page, id) in live.iter().enumerate() {
            remap.insert(*id, page as u32);
        }

        let mut clips: Vec<Vec<ClipPoint<D>>> = vec![Vec::new(); live.len()];
        for (page, id) in live.iter().enumerate() {
            let node = source.tree.node(*id);
            // Rewrite child pointers to page ids.
            let mut copy: Node<D> = node.clone();
            for e in copy.entries.iter_mut() {
                if let Child::Node(c) = e.child {
                    e.child = Child::Node(NodeId(remap[&c]));
                }
            }
            store.write_page(page as u32, &encode_node(&copy));
            clips[page] = source.clips_of(*id).to_vec();
        }

        DiskRTree {
            root: remap[&source.tree.root_id()],
            len: source.tree.len(),
            clips,
            pool: BufferPool::new(pool_pages),
        }
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop all buffered pages (cold-start measurement).
    pub fn drop_caches(&mut self) {
        self.pool.clear();
    }

    /// Buffer-pool statistics.
    pub fn pool_stats(&self) -> crate::buffer::PoolStats {
        self.pool.stats
    }

    /// Range query through the buffer pool. `use_clips` toggles the
    /// Algorithm 2 tests (the unclipped baseline runs on the same pages).
    pub fn range_query(
        &mut self,
        store: &mut dyn PageStore,
        q: &Rect<D>,
        use_clips: bool,
    ) -> (Vec<DataId>, DiskQueryStats) {
        let mut stats = DiskQueryStats::default();
        let mut out = Vec::new();
        if self.len == 0 {
            return (out, stats);
        }
        // Explicit stack of page ids to visit (already CBB-tested).
        let mut stack: Vec<u32> = Vec::new();
        let root_node = self.fetch(store, self.root, &mut stats);
        let root_mbb = root_node.mbb;
        drop(root_node);
        if root_mbb.intersects(q)
            && (!use_clips || query_intersects_cbb(&root_mbb, &self.clips[self.root as usize], q))
        {
            stack.push(self.root);
        }
        while let Some(page) = stack.pop() {
            let node: Node<D> = self.fetch(store, page, &mut stats);
            if node.level == 0 {
                for e in &node.entries {
                    if e.mbb.intersects(q) {
                        out.push(e.child.data_id());
                        stats.results += 1;
                    }
                }
                continue;
            }
            for e in &node.entries {
                if !e.mbb.intersects(q) {
                    continue;
                }
                let child = match e.child {
                    Child::Node(NodeId(p)) => p,
                    Child::Data(_) => unreachable!("directory with data entry"),
                };
                if use_clips && !query_intersects_cbb(&e.mbb, &self.clips[child as usize], q) {
                    stats.clip_prunes += 1;
                    continue;
                }
                stack.push(child);
            }
        }
        (out, stats)
    }

    fn fetch(
        &mut self,
        store: &mut dyn PageStore,
        page: u32,
        stats: &mut DiskQueryStats,
    ) -> Node<D> {
        stats.page_requests += 1;
        let misses_before = self.pool.stats.misses;
        let buf = self.pool.get(store, page);
        let node = decode_node(buf).expect("pages hold nodes this tree encoded");
        if self.pool.stats.misses > misses_before {
            stats.page_faults += 1;
        }
        node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagestore::MemPageStore;
    use cbb_core::{ClipConfig, ClipMethod};
    use cbb_geom::{Point, SplitMix64};
    use cbb_rtree::{RTree, TreeConfig, Variant};

    fn build(n: usize) -> (ClippedRTree<2>, Vec<Rect<2>>) {
        let mut rng = SplitMix64::new(77);
        let boxes: Vec<Rect<2>> = (0..n)
            .map(|_| {
                let x = rng.gen_range(0.0, 950.0);
                let y = rng.gen_range(0.0, 950.0);
                Rect::new(Point([x, y]), Point([x + 5.0, y + 5.0]))
            })
            .collect();
        let items: Vec<(Rect<2>, DataId)> = boxes
            .iter()
            .enumerate()
            .map(|(i, b)| (*b, DataId(i as u32)))
            .collect();
        let tree = RTree::bulk_load(
            TreeConfig::tiny(Variant::RStar)
                .with_world(Rect::new(Point([0.0, 0.0]), Point([1000.0, 1000.0]))),
            &items,
        );
        (
            ClippedRTree::from_tree(tree, ClipConfig::paper_default::<2>(ClipMethod::Stairline)),
            boxes,
        )
    }

    #[test]
    fn disk_queries_match_memory_queries() {
        let (clipped, _) = build(800);
        let mut store = MemPageStore::new();
        let mut disk = DiskRTree::persist(&clipped, &mut store, 16);
        let mut rng = SplitMix64::new(5);
        for _ in 0..60 {
            let x = rng.gen_range(0.0, 900.0);
            let y = rng.gen_range(0.0, 900.0);
            let q = Rect::new(Point([x, y]), Point([x + 40.0, y + 40.0]));
            let mut expected = clipped.range_query(&q);
            let (mut got, stats) = disk.range_query(&mut store, &q, true);
            expected.sort();
            got.sort();
            assert_eq!(got, expected);
            assert_eq!(stats.results as usize, got.len());
        }
    }

    #[test]
    fn unclipped_disk_queries_match_base_tree() {
        let (clipped, _) = build(500);
        let mut store = MemPageStore::new();
        let mut disk = DiskRTree::persist(&clipped, &mut store, 8);
        let q = Rect::new(Point([100.0, 100.0]), Point([300.0, 300.0]));
        let mut expected = clipped.tree.range_query(&q);
        let (mut got, _) = disk.range_query(&mut store, &q, false);
        expected.sort();
        got.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn clipping_reduces_page_faults_with_cold_cache() {
        let (clipped, _) = build(1500);
        let mut store = MemPageStore::new();
        let mut disk = DiskRTree::persist(&clipped, &mut store, 4);
        let mut rng = SplitMix64::new(9);
        let mut faults_base = 0u64;
        let mut faults_clip = 0u64;
        for _ in 0..150 {
            let x = rng.gen_range(0.0, 980.0);
            let y = rng.gen_range(0.0, 980.0);
            let q = Rect::new(Point([x, y]), Point([x + 6.0, y + 6.0]));
            disk.drop_caches();
            let (_, s1) = disk.range_query(&mut store, &q, false);
            disk.drop_caches();
            let (_, s2) = disk.range_query(&mut store, &q, true);
            faults_base += s1.page_faults;
            faults_clip += s2.page_faults;
        }
        assert!(
            faults_clip < faults_base,
            "clipping should save page faults: {faults_clip} vs {faults_base}"
        );
    }

    #[test]
    fn warm_pool_produces_hits() {
        let (clipped, _) = build(300);
        let mut store = MemPageStore::new();
        let mut disk = DiskRTree::persist(&clipped, &mut store, 256);
        let q = Rect::new(Point([0.0, 0.0]), Point([500.0, 500.0]));
        let _ = disk.range_query(&mut store, &q, true);
        let cold = disk.pool_stats();
        let _ = disk.range_query(&mut store, &q, true);
        let warm = disk.pool_stats();
        assert_eq!(warm.misses, cold.misses, "second run fully cached");
        assert!(warm.hits > cold.hits);
    }
}
