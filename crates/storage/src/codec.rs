//! Byte-exact node and clip-table codecs (Figure 4 physical layout).
//!
//! Node page (4096 bytes):
//! ```text
//! [level: u32][count: u32][lhv: u64]                       — 16-byte header
//! count × [lo: D×f64][hi: D×f64][child: u32]               — entries
//! ```
//!
//! Clip-table record per node (Figure 4b; the table itself is an array
//! indexed by node id):
//! ```text
//! [count: u16] then count × [mask: u8][coord: D×f64]
//! ```
//!
//! The decoders are total: a buffer too short for the header or for the
//! `count` entries it declares is a [`DecodeError`], never a panic or an
//! allocation sized by untrusted bytes.

use cbb_core::ClipPoint;
use cbb_geom::{CornerMask, Point, Rect};
use cbb_rtree::config::{entry_bytes, NODE_HEADER_BYTES, PAGE_SIZE};
use cbb_rtree::{Child, DataId, Entry, Node, NodeId};

/// A byte buffer that is not a valid node page or clip record: it ends
/// before the header, or before the `count` entries the header declares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecodeError {
    /// Bytes the header (and its declared entries) need.
    pub needed: usize,
    /// Bytes the buffer has.
    pub len: usize,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "truncated record: needs {} bytes, has {}",
            self.needed, self.len
        )
    }
}

impl std::error::Error for DecodeError {}

/// `Ok` when `buf` holds a `header`-byte header plus `count` records of
/// `each` bytes (overflow counts as too short).
fn check_len(buf: &[u8], header: usize, count: usize, each: usize) -> Result<(), DecodeError> {
    let needed = count
        .checked_mul(each)
        .and_then(|body| body.checked_add(header))
        .unwrap_or(usize::MAX);
    if buf.len() < needed {
        Err(DecodeError {
            needed,
            len: buf.len(),
        })
    } else {
        Ok(())
    }
}

/// Serialize a node into a fresh page buffer.
pub fn encode_node<const D: usize>(node: &Node<D>) -> Vec<u8> {
    assert!(
        NODE_HEADER_BYTES + node.entries.len() * entry_bytes(D) <= PAGE_SIZE,
        "node with {} entries overflows a page",
        node.entries.len()
    );
    let mut buf = vec![0u8; PAGE_SIZE];
    buf[0..4].copy_from_slice(&node.level.to_le_bytes());
    buf[4..8].copy_from_slice(&(node.entries.len() as u32).to_le_bytes());
    buf[8..16].copy_from_slice(&node.lhv.to_le_bytes());
    let mut off = NODE_HEADER_BYTES;
    for e in &node.entries {
        for i in 0..D {
            buf[off..off + 8].copy_from_slice(&e.mbb.lo[i].to_le_bytes());
            off += 8;
        }
        for i in 0..D {
            buf[off..off + 8].copy_from_slice(&e.mbb.hi[i].to_le_bytes());
            off += 8;
        }
        let child: u32 = match e.child {
            Child::Node(NodeId(id)) => id,
            Child::Data(DataId(id)) => id,
        };
        buf[off..off + 4].copy_from_slice(&child.to_le_bytes());
        off += 4;
    }
    buf
}

/// Deserialize a node from a page buffer. The entry count is checked
/// against the buffer length before anything is allocated or read.
pub fn decode_node<const D: usize>(buf: &[u8]) -> Result<Node<D>, DecodeError> {
    check_len(buf, NODE_HEADER_BYTES, 0, 0)?;
    let level = u32::from_le_bytes(buf[0..4].try_into().expect("header"));
    let count = u32::from_le_bytes(buf[4..8].try_into().expect("header")) as usize;
    let lhv = u64::from_le_bytes(buf[8..16].try_into().expect("header"));
    check_len(buf, NODE_HEADER_BYTES, count, entry_bytes(D))?;
    let mut node = Node::new(level);
    node.lhv = lhv;
    node.entries.reserve_exact(count);
    let mut off = NODE_HEADER_BYTES;
    let read_f64 = |off: &mut usize| {
        let v = f64::from_le_bytes(buf[*off..*off + 8].try_into().expect("coord"));
        *off += 8;
        v
    };
    for _ in 0..count {
        let mut lo = [0.0; D];
        let mut hi = [0.0; D];
        for l in lo.iter_mut() {
            *l = read_f64(&mut off);
        }
        for h in hi.iter_mut() {
            *h = read_f64(&mut off);
        }
        let raw = u32::from_le_bytes(buf[off..off + 4].try_into().expect("child"));
        off += 4;
        let child = if level == 0 {
            Child::Data(DataId(raw))
        } else {
            Child::Node(NodeId(raw))
        };
        node.entries.push(Entry {
            mbb: Rect::new(Point(lo), Point(hi)),
            child,
        });
    }
    node.recompute_mbb();
    Ok(node)
}

/// Bytes one clip point occupies on disk.
pub const fn clip_point_bytes(d: usize) -> usize {
    1 + d * std::mem::size_of::<f64>()
}

/// Bytes the per-node clip-table header occupies (count + offset pointer).
pub const CLIP_RECORD_HEADER_BYTES: usize = 2 + 8;

/// Serialize one node's clip points.
pub fn encode_clips<const D: usize>(clips: &[ClipPoint<D>]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(2 + clips.len() * clip_point_bytes(D));
    buf.extend_from_slice(&(clips.len() as u16).to_le_bytes());
    for c in clips {
        buf.push(c.mask.bits());
        for i in 0..D {
            buf.extend_from_slice(&c.coord[i].to_le_bytes());
        }
    }
    buf
}

/// Deserialize one node's clip points (scores are not persisted — they
/// only order the points, and the order is preserved on disk).
pub fn decode_clips<const D: usize>(buf: &[u8]) -> Result<Vec<ClipPoint<D>>, DecodeError> {
    check_len(buf, 2, 0, 0)?;
    let count = u16::from_le_bytes(buf[0..2].try_into().expect("count")) as usize;
    check_len(buf, 2, count, clip_point_bytes(D))?;
    let mut out = Vec::with_capacity(count);
    let mut off = 2;
    for _ in 0..count {
        let mask = CornerMask::new(buf[off]);
        off += 1;
        let mut coord = [0.0; D];
        for c in coord.iter_mut() {
            *c = f64::from_le_bytes(buf[off..off + 8].try_into().expect("coord"));
            off += 8;
        }
        out.push(ClipPoint::new(mask, Point(coord)));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_node() -> Node<2> {
        let mut n = Node::new(0);
        for i in 0..10 {
            let x = i as f64 * 3.0;
            n.entries.push(Entry::data(
                Rect::new(Point([x, x + 1.0]), Point([x + 2.0, x + 4.0])),
                DataId(i),
            ));
        }
        n.recompute_mbb();
        n.lhv = 0xDEAD_BEEF;
        n
    }

    #[test]
    fn node_roundtrip_leaf() {
        let n = sample_node();
        let buf = encode_node(&n);
        assert_eq!(buf.len(), PAGE_SIZE);
        let back: Node<2> = decode_node(&buf).unwrap();
        assert_eq!(back.level, 0);
        assert_eq!(back.lhv, n.lhv);
        assert_eq!(back.entries.len(), n.entries.len());
        for (a, b) in n.entries.iter().zip(&back.entries) {
            assert_eq!(a.mbb, b.mbb);
            assert_eq!(a.child, b.child);
        }
        assert_eq!(back.mbb, n.mbb);
    }

    #[test]
    fn node_roundtrip_directory() {
        let mut n: Node<3> = Node::new(2);
        n.entries.push(Entry::node(
            Rect::new(Point([0.0; 3]), Point([1.0, 2.0, 3.0])),
            NodeId(17),
        ));
        n.recompute_mbb();
        let back: Node<3> = decode_node(&encode_node(&n)).unwrap();
        assert_eq!(back.level, 2);
        assert_eq!(back.entries[0].child, Child::Node(NodeId(17)));
    }

    #[test]
    fn full_page_fits_exactly() {
        let mut n: Node<2> = Node::new(0);
        let cap = (PAGE_SIZE - NODE_HEADER_BYTES) / entry_bytes(2);
        for i in 0..cap {
            n.entries.push(Entry::data(
                Rect::new(Point([0.0, 0.0]), Point([1.0, 1.0])),
                DataId(i as u32),
            ));
        }
        n.recompute_mbb();
        let buf = encode_node(&n);
        let back: Node<2> = decode_node(&buf).unwrap();
        assert_eq!(back.entries.len(), cap);
    }

    #[test]
    #[should_panic(expected = "overflows a page")]
    fn overfull_node_panics() {
        let mut n: Node<2> = Node::new(0);
        let cap = (PAGE_SIZE - NODE_HEADER_BYTES) / entry_bytes(2);
        for i in 0..=cap {
            n.entries.push(Entry::data(
                Rect::new(Point([0.0, 0.0]), Point([1.0, 1.0])),
                DataId(i as u32),
            ));
        }
        let _ = encode_node(&n);
    }

    #[test]
    fn clip_roundtrip() {
        let clips = vec![
            ClipPoint::new(CornerMask::new(0b01), Point([1.5, 2.5])),
            ClipPoint::new(CornerMask::new(0b10), Point([3.5, 4.5])),
        ];
        let buf = encode_clips(&clips);
        assert_eq!(buf.len(), 2 + 2 * clip_point_bytes(2));
        let back: Vec<ClipPoint<2>> = decode_clips(&buf).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].mask, clips[0].mask);
        assert_eq!(back[0].coord, clips[0].coord);
        assert_eq!(back[1].coord, clips[1].coord);
    }

    #[test]
    fn decoders_reject_counts_beyond_the_buffer() {
        let mut page = encode_node(&sample_node());
        // Top bit of the entry count: 2^31 + 10 entries on one page.
        page[7] ^= 0x80;
        assert!(decode_node::<2>(&page).is_err());
        assert!(decode_node::<2>(&page[..NODE_HEADER_BYTES - 1]).is_err());
        let clips = encode_clips(&[ClipPoint::new(CornerMask::new(0b01), Point([1.5, 2.5]))]);
        assert!(decode_clips::<2>(&clips[..clips.len() - 1]).is_err());
        assert!(decode_clips::<2>(&clips[..1]).is_err());
    }

    #[test]
    fn clip_bytes_formula() {
        assert_eq!(clip_point_bytes(2), 17);
        assert_eq!(clip_point_bytes(3), 25);
    }
}
