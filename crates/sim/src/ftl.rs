//! Flash Translation Layer: page-level mapping, write allocation, and
//! greedy garbage collection bookkeeping.
//!
//! The FTL here is deliberately the *standard* design MQSim implements
//! (page-level mapping, channel/die/plane-striped write allocation, greedy
//! min-valid GC) — the paper's contribution sits below it, in how individual
//! flash reads are retried. All timing lives in the event engine
//! ([`crate::ssd`]); this module is pure bookkeeping.

use crate::config::{ConfigError, SsdConfig};
use rr_util::codec::{CodecError, Decoder, Encoder};

/// A physical page number: flat index over the whole SSD.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ppn(pub u32);

const UNMAPPED: u32 = u32::MAX;
const NO_LPN: u32 = u32::MAX;

/// Where a physical page lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PpnLocation {
    /// Channel index.
    pub channel: u32,
    /// Die index *within the channel's chip*.
    pub die_in_chip: u32,
    /// Global die index across the SSD (`channel·dies + die`).
    pub die_global: u32,
    /// Global plane index across the SSD.
    pub plane_global: u32,
    /// Global block index across the SSD (the error model's block key).
    pub block_global: u64,
    /// Page index within the block.
    pub page_in_block: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockState {
    Free,
    Open,
    Full,
    GcVictim,
}

impl BlockState {
    fn to_u8(self) -> u8 {
        match self {
            BlockState::Free => 0,
            BlockState::Open => 1,
            BlockState::Full => 2,
            BlockState::GcVictim => 3,
        }
    }

    fn from_u8(v: u8) -> Result<Self, CodecError> {
        match v {
            0 => Ok(BlockState::Free),
            1 => Ok(BlockState::Open),
            2 => Ok(BlockState::Full),
            3 => Ok(BlockState::GcVictim),
            other => Err(CodecError::invalid(format!(
                "unknown block state discriminant {other}"
            ))),
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct BlockMeta {
    state: BlockState,
    next_page: u32,
    valid_count: u32,
}

/// Result of allocating a physical page for a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteAlloc {
    /// The newly allocated physical page.
    pub ppn: Ppn,
    /// A plane whose free-block count dropped to the GC threshold, if any —
    /// the engine should start garbage collection there.
    pub gc_hint: Option<u32>,
}

/// Page-level FTL state.
///
/// # Example
///
/// ```
/// use rr_sim::config::SsdConfig;
/// use rr_sim::ftl::Ftl;
///
/// let cfg = SsdConfig::scaled_for_tests();
/// let mut ftl = Ftl::new(&cfg, 1000).expect("footprint fits");
/// ftl.precondition();
/// let ppn = ftl.translate(42).expect("preconditioned LPN is mapped");
/// assert!(ftl.is_cold(42));
/// let alloc = ftl.allocate_for_write(42).expect("space available");
/// assert_ne!(alloc.ppn, ppn, "overwrite moves the page");
/// assert!(!ftl.is_cold(42));
/// ```
#[derive(Debug, Clone)]
pub struct Ftl {
    // Geometry (copied out of the config for locality).
    channels: u32,
    dies_per_chip: u32,
    planes_per_die: u32,
    blocks_per_plane: u32,
    pages_per_block: u32,
    gc_threshold: u32,

    lpn_count: u64,
    /// lpn → ppn.
    map: Vec<u32>,
    /// ppn → lpn.
    rmap: Vec<u32>,
    blocks: Vec<BlockMeta>,
    /// Per plane: the block currently receiving writes (global block id).
    open_block: Vec<Option<u32>>,
    /// Per plane: free block list (global block ids).
    free_blocks: Vec<Vec<u32>>,
    /// Round-robin plane cursor for write striping (CWDP order).
    next_plane: u32,
    /// lpn bit: physically (re)programmed during the run ⇒ zero retention.
    fresh: Vec<u64>,
}

impl Ftl {
    /// Creates an FTL for `lpn_count` logical pages.
    ///
    /// # Errors
    ///
    /// Returns an error when the footprint exceeds
    /// [`SsdConfig::max_lpns`] or the config is invalid.
    pub fn new(cfg: &SsdConfig, lpn_count: u64) -> Result<Self, ConfigError> {
        let mut ftl = Self {
            channels: 0,
            dies_per_chip: 0,
            planes_per_die: 0,
            blocks_per_plane: 0,
            pages_per_block: 1,
            gc_threshold: 0,
            lpn_count: 0,
            map: Vec::new(),
            rmap: Vec::new(),
            blocks: Vec::new(),
            open_block: Vec::new(),
            free_blocks: Vec::new(),
            next_plane: 0,
            fresh: Vec::new(),
        };
        ftl.rebuild(cfg, lpn_count)?;
        Ok(ftl)
    }

    /// Rebuilds this FTL in place for a (possibly different) configuration
    /// and footprint, reusing its allocations — semantically identical to
    /// replacing it with `Ftl::new(cfg, lpn_count)?`. The simulation arena
    /// calls this between runs so the multi-megabyte mapping tables are not
    /// reallocated per experiment cell.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Ftl::new`]; on error the FTL must not be used
    /// until a subsequent rebuild succeeds.
    pub fn rebuild(&mut self, cfg: &SsdConfig, lpn_count: u64) -> Result<(), ConfigError> {
        cfg.validate().map_err(ConfigError::new)?;
        if lpn_count == 0 {
            return Err(ConfigError::new("lpn_count must be positive"));
        }
        if lpn_count > cfg.max_lpns() {
            return Err(ConfigError::new(format!(
                "footprint of {lpn_count} pages exceeds usable capacity of {} pages",
                cfg.max_lpns()
            )));
        }
        let total_planes = cfg.total_planes();
        let total_blocks = cfg.total_blocks() as usize;
        let total_pages = cfg.total_pages();
        if total_pages > u32::MAX as u64 || lpn_count > NO_LPN as u64 {
            return Err(ConfigError::new("geometry exceeds 32-bit page indexing"));
        }
        self.channels = cfg.channels;
        self.dies_per_chip = cfg.chip.dies;
        self.planes_per_die = cfg.chip.planes_per_die;
        self.blocks_per_plane = cfg.chip.blocks_per_plane;
        self.pages_per_block = cfg.chip.pages_per_block;
        self.gc_threshold = cfg.gc_threshold_blocks;
        self.lpn_count = lpn_count;
        self.map.clear();
        self.map.resize(lpn_count as usize, UNMAPPED);
        self.rmap.clear();
        self.rmap.resize(total_pages as usize, NO_LPN);
        self.blocks.clear();
        self.blocks.resize(
            total_blocks,
            BlockMeta {
                state: BlockState::Free,
                next_page: 0,
                valid_count: 0,
            },
        );
        self.open_block.clear();
        self.open_block.resize(total_planes as usize, None);
        self.free_blocks.truncate(total_planes as usize);
        self.free_blocks
            .resize_with(total_planes as usize, Vec::new);
        for (p, list) in self.free_blocks.iter_mut().enumerate() {
            list.clear();
            // Highest ids first so pops allocate in ascending order.
            list.extend(
                (0..cfg.chip.blocks_per_plane)
                    .rev()
                    .map(|b| p as u32 * cfg.chip.blocks_per_plane + b),
            );
        }
        self.next_plane = 0;
        self.fresh.clear();
        self.fresh.resize((lpn_count as usize).div_ceil(64), 0);
        Ok(())
    }

    /// Number of logical pages.
    pub fn lpn_count(&self) -> u64 {
        self.lpn_count
    }

    /// Decomposes a PPN into its physical location.
    pub fn locate(&self, ppn: Ppn) -> PpnLocation {
        let page_in_block = ppn.0 % self.pages_per_block;
        let block_global = (ppn.0 / self.pages_per_block) as u64;
        let plane_global = (block_global / self.blocks_per_plane as u64) as u32;
        let die_global = plane_global / self.planes_per_die;
        let channel = die_global / self.dies_per_chip;
        PpnLocation {
            channel,
            die_in_chip: die_global % self.dies_per_chip,
            die_global,
            plane_global,
            block_global,
            page_in_block,
        }
    }

    /// Current mapping of an LPN.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is outside the footprint.
    pub fn translate(&self, lpn: u64) -> Option<Ppn> {
        let v = self.map[lpn as usize];
        (v != UNMAPPED).then_some(Ppn(v))
    }

    /// The LPN stored at a physical page, if the page is valid.
    pub fn reverse(&self, ppn: Ppn) -> Option<u64> {
        let v = self.rmap[ppn.0 as usize];
        (v != NO_LPN).then_some(v as u64)
    }

    /// Whether the LPN still holds its preconditioned (long-retention) data —
    /// i.e. it has not been physically reprogrammed during the run.
    pub fn is_cold(&self, lpn: u64) -> bool {
        self.fresh[(lpn / 64) as usize] >> (lpn % 64) & 1 == 0
    }

    fn mark_fresh(&mut self, lpn: u64) {
        self.fresh[(lpn / 64) as usize] |= 1 << (lpn % 64);
    }

    /// Free blocks currently available in a plane.
    pub fn free_blocks_in_plane(&self, plane: u32) -> u32 {
        self.free_blocks[plane as usize].len() as u32
    }

    /// Whether a plane urgently needs GC to make progress.
    pub fn plane_is_critical(&self, plane: u32) -> bool {
        self.free_blocks_in_plane(plane) <= 1
    }

    /// Maps the whole footprint sequentially, striped across planes — the
    /// "preconditioned SSD" starting state (§7.1: the retention age of this
    /// data is the configured operating condition).
    ///
    /// # Panics
    ///
    /// Panics if called on a non-empty FTL.
    pub fn precondition(&mut self) {
        assert!(
            self.map.iter().all(|&m| m == UNMAPPED),
            "precondition requires an empty FTL"
        );
        // Equivalent to `allocate_raw((lpn % planes) as u32)` + commit per
        // LPN, but filling each plane's blocks wholesale: the per-page
        // allocator bookkeeping (open-block checks, free-list pops) runs
        // once per block instead of once per page, which matters because
        // every experiment cell preconditions a fresh footprint.
        let planes = self.total_planes() as u64;
        let ppb = self.pages_per_block as u64;
        for plane in 0..planes.min(self.lpn_count) {
            // LPNs striped onto this plane: plane, plane + planes, ...
            let lpns_here = (self.lpn_count - plane).div_ceil(planes);
            let mut open: Option<u32> = None;
            let mut filled = 0u64;
            for k in 0..lpns_here {
                if open.is_none() || filled == ppb {
                    // Retire the filled block and open a fresh one, exactly
                    // as the per-page allocator would (the last block stays
                    // Open even when exactly full — retirement is lazy).
                    if let Some(b) = open {
                        let meta = &mut self.blocks[b as usize];
                        meta.state = BlockState::Full;
                        meta.next_page = ppb as u32;
                        meta.valid_count = ppb as u32;
                    }
                    let b = self.free_blocks[plane as usize]
                        .pop()
                        .expect("footprint was validated to fit");
                    self.blocks[b as usize] = BlockMeta {
                        state: BlockState::Open,
                        next_page: 0,
                        valid_count: 0,
                    };
                    open = Some(b);
                    filled = 0;
                }
                let b = open.expect("just opened");
                let lpn = plane + k * planes;
                let ppn = b as u64 * ppb + filled;
                self.map[lpn as usize] = ppn as u32;
                self.rmap[ppn as usize] = lpn as u32;
                filled += 1;
            }
            if let Some(b) = open {
                let meta = &mut self.blocks[b as usize];
                meta.next_page = filled as u32;
                meta.valid_count = filled as u32;
            }
            self.open_block[plane as usize] = open;
        }
        // Preconditioned data is cold, not fresh.
        self.fresh.fill(0);
    }

    fn total_planes(&self) -> u32 {
        self.channels * self.dies_per_chip * self.planes_per_die
    }

    /// Allocates the next physical page for a host write of `lpn`, striping
    /// writes round-robin across planes, and invalidates the old copy.
    ///
    /// # Errors
    ///
    /// Returns an error if no plane has a free page (GC has fallen
    /// irrecoverably behind — a simulation configuration bug).
    pub fn allocate_for_write(&mut self, lpn: u64) -> Result<WriteAlloc, String> {
        assert!(lpn < self.lpn_count, "lpn {lpn} outside footprint");
        // Round-robin over planes; skip planes with no space at all.
        let planes = self.total_planes();
        let mut alloc = None;
        for offset in 0..planes {
            let plane = (self.next_plane + offset) % planes;
            if let Some(a) = self.allocate_raw(plane) {
                self.next_plane = (plane + 1) % planes;
                alloc = Some(a);
                break;
            }
        }
        let alloc = alloc.ok_or_else(|| "SSD out of free pages (GC starved)".to_string())?;
        self.invalidate(lpn);
        self.commit_write(lpn, alloc);
        self.mark_fresh(lpn);
        let plane = self.locate(alloc.0).plane_global;
        Ok(WriteAlloc {
            ppn: alloc.0,
            gc_hint: self.gc_hint(plane),
        })
    }

    /// Allocates a page *in a specific plane* for a GC move of `lpn`.
    ///
    /// # Errors
    ///
    /// Returns an error if the plane is completely out of pages.
    pub fn allocate_for_gc(&mut self, lpn: u64, plane: u32) -> Result<Ppn, String> {
        let alloc = self
            .allocate_raw(plane)
            .ok_or_else(|| format!("plane {plane} out of free pages during GC"))?;
        self.invalidate(lpn);
        self.commit_write(lpn, alloc);
        // A GC move physically reprograms the data: retention resets.
        self.mark_fresh(lpn);
        Ok(alloc.0)
    }

    /// `(ppn, block)` of a fresh page in `plane`, or `None` if exhausted.
    fn allocate_raw(&mut self, plane: u32) -> Option<(Ppn, u32)> {
        let open = match self.open_block[plane as usize] {
            Some(b) if self.blocks[b as usize].next_page < self.pages_per_block => b,
            _ => {
                // Retire the filled open block and open a fresh one.
                if let Some(b) = self.open_block[plane as usize] {
                    self.blocks[b as usize].state = BlockState::Full;
                }
                let b = self.free_blocks[plane as usize].pop()?;
                self.blocks[b as usize] = BlockMeta {
                    state: BlockState::Open,
                    next_page: 0,
                    valid_count: 0,
                };
                self.open_block[plane as usize] = Some(b);
                b
            }
        };
        let meta = &mut self.blocks[open as usize];
        let page = meta.next_page;
        meta.next_page += 1;
        meta.valid_count += 1;
        Some((Ppn(open * self.pages_per_block + page), open))
    }

    fn commit_write(&mut self, lpn: u64, alloc: (Ppn, u32)) {
        self.map[lpn as usize] = alloc.0 .0;
        self.rmap[alloc.0 .0 as usize] = lpn as u32;
    }

    /// Invalidates the current copy of `lpn`, if any.
    fn invalidate(&mut self, lpn: u64) {
        let old = self.map[lpn as usize];
        if old != UNMAPPED {
            self.rmap[old as usize] = NO_LPN;
            let block = (old / self.pages_per_block) as usize;
            debug_assert!(self.blocks[block].valid_count > 0);
            self.blocks[block].valid_count -= 1;
        }
    }

    fn gc_hint(&self, plane: u32) -> Option<u32> {
        (self.free_blocks_in_plane(plane) <= self.gc_threshold).then_some(plane)
    }

    /// Picks the greedy (min-valid) GC victim in a plane and marks it,
    /// returning the block and the LPNs that must be moved. Returns `None`
    /// when no Full block exists.
    pub fn start_gc(&mut self, plane: u32) -> Option<GcJob> {
        let base = plane * self.blocks_per_plane;
        let mut best: Option<(u32, u32)> = None;
        for b in base..base + self.blocks_per_plane {
            let meta = &self.blocks[b as usize];
            if meta.state == BlockState::Full {
                let better = match best {
                    None => true,
                    Some((_, v)) => meta.valid_count < v,
                };
                if better {
                    best = Some((b, meta.valid_count));
                }
            }
        }
        let (victim, _) = best?;
        self.blocks[victim as usize].state = BlockState::GcVictim;
        let first = victim * self.pages_per_block;
        let moves: Vec<(u64, Ppn)> = (first..first + self.pages_per_block)
            .filter_map(|p| self.reverse(Ppn(p)).map(|lpn| (lpn, Ppn(p))))
            .collect();
        Some(GcJob {
            plane,
            victim_block: victim,
            moves,
        })
    }

    /// Whether a page still holds the same valid LPN it did when a GC job was
    /// created (a host overwrite invalidates the move).
    pub fn gc_move_still_needed(&self, lpn: u64, src: Ppn) -> bool {
        self.map[lpn as usize] == src.0
    }

    /// Completes GC of a victim: returns the (now empty) block to the free
    /// list. The engine calls this after the erase transaction finishes.
    ///
    /// # Panics
    ///
    /// Panics if the block still holds valid pages (GC logic bug) or was not
    /// marked as a victim.
    pub fn finish_gc(&mut self, victim_block: u32) {
        let meta = &mut self.blocks[victim_block as usize];
        assert_eq!(meta.state, BlockState::GcVictim, "finish_gc on non-victim");
        assert_eq!(meta.valid_count, 0, "erasing a block with valid pages");
        meta.state = BlockState::Free;
        meta.next_page = 0;
        let plane = victim_block / self.blocks_per_plane;
        self.free_blocks[plane as usize].push(victim_block);
    }

    /// Valid-page count of a block (test/diagnostic aid).
    pub fn block_valid_count(&self, block: u32) -> u32 {
        self.blocks[block as usize].valid_count
    }

    /// Snapshots the FTL's entire mutable state — mapping tables, block
    /// metadata, open blocks, free lists, the write-striping cursor, and the
    /// per-page freshness (retention) bitmap.
    ///
    /// The returned [`FtlState`] is the device-side half of a
    /// [`crate::snapshot::DeviceImage`]; feeding it back through
    /// [`Ftl::restore`] reproduces this FTL bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if the captured state fails [`FtlState`]'s consistency check:
    /// a live FTL that does is a simulator bug.
    pub fn capture(&self) -> FtlState {
        self.clone().into_state()
    }

    /// [`Ftl::capture`] for an FTL that is no longer needed: moves the
    /// tables into the state instead of copying them.
    ///
    /// # Panics
    ///
    /// As [`Ftl::capture`].
    pub fn into_state(self) -> FtlState {
        let state = FtlState {
            channels: self.channels,
            dies_per_chip: self.dies_per_chip,
            planes_per_die: self.planes_per_die,
            blocks_per_plane: self.blocks_per_plane,
            pages_per_block: self.pages_per_block,
            lpn_count: self.lpn_count,
            map: self.map,
            rmap: self.rmap,
            blocks: self.blocks,
            open_block: self
                .open_block
                .iter()
                .map(|b| b.unwrap_or(UNMAPPED))
                .collect(),
            free_blocks: self.free_blocks,
            next_plane: self.next_plane,
            fresh: self.fresh,
        };
        state
            .check_consistency()
            .expect("a live FTL captures a consistent image");
        state
    }

    /// Restores a previously captured state into this FTL, reusing its
    /// allocations — the snapshot analogue of [`Ftl::rebuild`] (and like
    /// `EventQueue::reset`, it only ever copies into buffers it already
    /// owns, so forking one image across many arena-pooled simulators does
    /// not reallocate the multi-megabyte tables per cell).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when `cfg` is invalid, when the state was
    /// captured under a different geometry, or when its footprint exceeds
    /// `cfg`'s capacity.
    ///
    /// The tables themselves are not rescanned here. An [`FtlState`] has
    /// private fields and no `&mut` methods, and its only sources —
    /// [`Ftl::into_state`] (behind [`Ftl::capture`]) and
    /// [`FtlState::decode`] — both run its structural consistency check, so
    /// every state `restore` can receive was checked once, when it was made.
    /// Forking one image into many cells therefore validates it once, not
    /// once per cell.
    pub fn restore(&mut self, cfg: &SsdConfig, state: &FtlState) -> Result<(), ConfigError> {
        cfg.validate().map_err(ConfigError::new)?;
        state.check_geometry(cfg)?;
        if state.lpn_count > cfg.max_lpns() {
            return Err(ConfigError::new(format!(
                "image footprint of {} pages exceeds usable capacity of {} pages",
                state.lpn_count,
                cfg.max_lpns()
            )));
        }
        self.channels = state.channels;
        self.dies_per_chip = state.dies_per_chip;
        self.planes_per_die = state.planes_per_die;
        self.blocks_per_plane = state.blocks_per_plane;
        self.pages_per_block = state.pages_per_block;
        self.gc_threshold = cfg.gc_threshold_blocks;
        self.lpn_count = state.lpn_count;
        self.map.clear();
        self.map.extend_from_slice(&state.map);
        self.rmap.clear();
        self.rmap.extend_from_slice(&state.rmap);
        self.blocks.clear();
        self.blocks.extend_from_slice(&state.blocks);
        self.open_block.clear();
        self.open_block.extend(
            state
                .open_block
                .iter()
                .map(|&b| (b != UNMAPPED).then_some(b)),
        );
        self.free_blocks.truncate(state.free_blocks.len());
        self.free_blocks
            .resize_with(state.free_blocks.len(), Vec::new);
        for (dst, src) in self.free_blocks.iter_mut().zip(&state.free_blocks) {
            dst.clear();
            dst.extend_from_slice(src);
        }
        self.next_plane = state.next_plane;
        self.fresh.clear();
        self.fresh.extend_from_slice(&state.fresh);
        Ok(())
    }
}

/// One past the largest entry of a mapping table, ignoring the `u32::MAX`
/// sentinel ([`UNMAPPED`] / [`NO_LPN`]); 0 when every entry is the sentinel.
/// `wrapping_add(1)` sends the sentinel to 0, which keeps the scan free of
/// branches and early exits: it runs over every captured image's
/// million-entry tables.
fn index_end(table: &[u32]) -> u64 {
    table.iter().fold(0, |end, &v| end.max(v.wrapping_add(1))) as u64
}

/// A verbatim snapshot of an [`Ftl`]'s mutable state.
///
/// Produced by [`Ftl::capture`] / [`Ftl::into_state`] or
/// [`FtlState::decode`], consumed by [`Ftl::restore`], and carried
/// inside a [`crate::snapshot::DeviceImage`]. The geometry fields pin the
/// configuration the snapshot was taken under; restore refuses a mismatched
/// target instead of reinterpreting the tables. Every value of this type is
/// structurally consistent: every constructor checks it, and nothing can
/// change it afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FtlState {
    channels: u32,
    dies_per_chip: u32,
    planes_per_die: u32,
    blocks_per_plane: u32,
    pages_per_block: u32,
    lpn_count: u64,
    map: Vec<u32>,
    rmap: Vec<u32>,
    blocks: Vec<BlockMeta>,
    /// Per plane: open block id, [`UNMAPPED`] when the plane has none.
    open_block: Vec<u32>,
    free_blocks: Vec<Vec<u32>>,
    next_plane: u32,
    fresh: Vec<u64>,
}

impl FtlState {
    /// Number of logical pages the captured device was preconditioned for.
    pub fn lpn_count(&self) -> u64 {
        self.lpn_count
    }

    fn total_planes(&self) -> u64 {
        self.channels as u64 * self.dies_per_chip as u64 * self.planes_per_die as u64
    }

    fn total_blocks(&self) -> u64 {
        self.total_planes() * self.blocks_per_plane as u64
    }

    fn total_pages(&self) -> u64 {
        self.total_blocks() * self.pages_per_block as u64
    }

    fn check_geometry(&self, cfg: &SsdConfig) -> Result<(), ConfigError> {
        let same = self.channels == cfg.channels
            && self.dies_per_chip == cfg.chip.dies
            && self.planes_per_die == cfg.chip.planes_per_die
            && self.blocks_per_plane == cfg.chip.blocks_per_plane
            && self.pages_per_block == cfg.chip.pages_per_block;
        if !same {
            return Err(ConfigError::new(format!(
                "image geometry {}ch × {}d × {}p × {}b × {}pg does not match the target \
                 configuration ({}ch × {}d × {}p × {}b × {}pg)",
                self.channels,
                self.dies_per_chip,
                self.planes_per_die,
                self.blocks_per_plane,
                self.pages_per_block,
                cfg.channels,
                cfg.chip.dies,
                cfg.chip.planes_per_die,
                cfg.chip.blocks_per_plane,
                cfg.chip.pages_per_block
            )));
        }
        Ok(())
    }

    /// Structural consistency: every table has the length its geometry
    /// implies and every index is in range.
    fn check_consistency(&self) -> Result<(), ConfigError> {
        let planes = self.total_planes();
        let blocks = self.total_blocks();
        let pages = self.total_pages();
        let bad = |what: String| Err(ConfigError::new(format!("inconsistent image: {what}")));
        if self.lpn_count == 0 {
            return bad("zero-page footprint".into());
        }
        if pages > u32::MAX as u64 || self.lpn_count > NO_LPN as u64 {
            return bad("geometry exceeds 32-bit page indexing".into());
        }
        if self.map.len() as u64 != self.lpn_count {
            return bad(format!(
                "map holds {} entries for a {}-page footprint",
                self.map.len(),
                self.lpn_count
            ));
        }
        if self.rmap.len() as u64 != pages {
            return bad(format!(
                "rmap holds {} entries for {pages} physical pages",
                self.rmap.len()
            ));
        }
        if self.blocks.len() as u64 != blocks {
            return bad(format!(
                "{} block records for {blocks} blocks",
                self.blocks.len()
            ));
        }
        if self.open_block.len() as u64 != planes || self.free_blocks.len() as u64 != planes {
            return bad(format!(
                "{} open-block / {} free-list entries for {planes} planes",
                self.open_block.len(),
                self.free_blocks.len()
            ));
        }
        if self.fresh.len() != (self.lpn_count as usize).div_ceil(64) {
            return bad("freshness bitmap length mismatch".into());
        }
        if self.next_plane as u64 >= planes {
            return bad(format!("striping cursor {} out of range", self.next_plane));
        }
        let map_end = index_end(&self.map);
        if map_end > pages {
            return bad(format!("map points at nonexistent page {}", map_end - 1));
        }
        let rmap_end = index_end(&self.rmap);
        if rmap_end > self.lpn_count {
            return bad(format!("rmap names out-of-footprint lpn {}", rmap_end - 1));
        }
        for meta in &self.blocks {
            if meta.next_page > self.pages_per_block || meta.valid_count > self.pages_per_block {
                return bad(format!(
                    "block record {}/{} exceeds {} pages per block",
                    meta.next_page, meta.valid_count, self.pages_per_block
                ));
            }
        }
        for (plane, &open) in self.open_block.iter().enumerate() {
            if open != UNMAPPED && open as u64 / self.blocks_per_plane as u64 != plane as u64 {
                return bad(format!("open block {open} not in plane {plane}"));
            }
        }
        for (plane, list) in self.free_blocks.iter().enumerate() {
            if list
                .iter()
                .any(|&b| b as u64 / self.blocks_per_plane as u64 != plane as u64)
            {
                return bad(format!("free list of plane {plane} names a foreign block"));
            }
        }
        Ok(())
    }

    /// Appends this state to an artifact being encoded.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.channels);
        enc.put_u32(self.dies_per_chip);
        enc.put_u32(self.planes_per_die);
        enc.put_u32(self.blocks_per_plane);
        enc.put_u32(self.pages_per_block);
        enc.put_u64(self.lpn_count);
        enc.put_u32_slice(&self.map);
        enc.put_u32_slice(&self.rmap);
        enc.put_u64(self.blocks.len() as u64);
        for b in &self.blocks {
            enc.put_u8(b.state.to_u8());
            enc.put_u32(b.next_page);
            enc.put_u32(b.valid_count);
        }
        enc.put_u32_slice(&self.open_block);
        enc.put_u64(self.free_blocks.len() as u64);
        for list in &self.free_blocks {
            enc.put_u32_slice(list);
        }
        enc.put_u32(self.next_plane);
        enc.put_u64_slice(&self.fresh);
    }

    /// Reads a state previously written by [`FtlState::encode`] and verifies
    /// its structural consistency — the only place an image from outside the
    /// process enters, and so the only check an inconsistent one meets.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation, bad discriminants, or a structurally
    /// impossible device.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let channels = dec.take_u32()?;
        let dies_per_chip = dec.take_u32()?;
        let planes_per_die = dec.take_u32()?;
        let blocks_per_plane = dec.take_u32()?;
        let pages_per_block = dec.take_u32()?;
        let lpn_count = dec.take_u64()?;
        let map = dec.take_u32_vec()?;
        let rmap = dec.take_u32_vec()?;
        let n_blocks = dec.take_u64()? as usize;
        if n_blocks.checked_mul(9).is_none_or(|b| b > dec.remaining()) {
            return Err(CodecError::Truncated {
                what: "block records",
            });
        }
        let mut blocks = Vec::with_capacity(n_blocks);
        for _ in 0..n_blocks {
            blocks.push(BlockMeta {
                state: BlockState::from_u8(dec.take_u8()?)?,
                next_page: dec.take_u32()?,
                valid_count: dec.take_u32()?,
            });
        }
        let open_block = dec.take_u32_vec()?;
        let n_planes = dec.take_u64()? as usize;
        if n_planes.checked_mul(8).is_none_or(|b| b > dec.remaining()) {
            return Err(CodecError::Truncated { what: "free lists" });
        }
        let mut free_blocks = Vec::with_capacity(n_planes);
        for _ in 0..n_planes {
            free_blocks.push(dec.take_u32_vec()?);
        }
        let next_plane = dec.take_u32()?;
        let fresh = dec.take_u64_vec()?;
        let state = Self {
            channels,
            dies_per_chip,
            planes_per_die,
            blocks_per_plane,
            pages_per_block,
            lpn_count,
            map,
            rmap,
            blocks,
            open_block,
            free_blocks,
            next_plane,
            fresh,
        };
        state.check_consistency().map_err(CodecError::invalid)?;
        Ok(state)
    }
}

/// A garbage-collection unit of work: move the `moves`, then erase the victim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GcJob {
    /// The plane being collected.
    pub plane: u32,
    /// Victim block (global id).
    pub victim_block: u32,
    /// `(lpn, source ppn)` pairs that were valid when GC started.
    pub moves: Vec<(u64, Ppn)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SsdConfig {
        let mut cfg = SsdConfig::scaled_for_tests();
        cfg.chip.blocks_per_plane = 16;
        cfg.chip.pages_per_block = 12;
        cfg
    }

    #[test]
    fn precondition_maps_everything_cold() {
        let cfg = small_cfg();
        let mut ftl = Ftl::new(&cfg, 500).unwrap();
        ftl.precondition();
        for lpn in 0..500 {
            assert!(ftl.translate(lpn).is_some());
            assert!(ftl.is_cold(lpn));
        }
        // Mapping is injective.
        let mut seen = std::collections::HashSet::new();
        for lpn in 0..500 {
            assert!(seen.insert(ftl.translate(lpn).unwrap()));
        }
    }

    #[test]
    fn precondition_stripes_across_planes() {
        let cfg = small_cfg();
        let planes = cfg.total_planes() as u64;
        let mut ftl = Ftl::new(&cfg, 4 * planes).unwrap();
        ftl.precondition();
        // Consecutive LPNs land on different planes (CWDP striping).
        let p0 = ftl.locate(ftl.translate(0).unwrap()).plane_global;
        let p1 = ftl.locate(ftl.translate(1).unwrap()).plane_global;
        assert_ne!(p0, p1);
    }

    #[test]
    fn overwrite_moves_and_invalidates() {
        let cfg = small_cfg();
        let mut ftl = Ftl::new(&cfg, 100).unwrap();
        ftl.precondition();
        let old = ftl.translate(7).unwrap();
        let old_block = ftl.locate(old).block_global as u32;
        let before = ftl.block_valid_count(old_block);
        let alloc = ftl.allocate_for_write(7).unwrap();
        assert_ne!(alloc.ppn, old);
        assert_eq!(ftl.block_valid_count(old_block), before - 1);
        assert_eq!(ftl.reverse(old), None);
        assert_eq!(ftl.reverse(alloc.ppn), Some(7));
        assert!(!ftl.is_cold(7));
    }

    #[test]
    fn locate_roundtrip_consistency() {
        let cfg = small_cfg();
        let ftl = Ftl::new(&cfg, 10).unwrap();
        let pages_per_plane = cfg.chip.blocks_per_plane * cfg.chip.pages_per_block;
        // Page 0 of plane 1.
        let ppn = Ppn(pages_per_plane);
        let loc = ftl.locate(ppn);
        assert_eq!(loc.plane_global, 1);
        assert_eq!(loc.page_in_block, 0);
        assert_eq!(loc.channel, 0);
        // Last page of the SSD.
        let last = Ppn(cfg.total_pages() as u32 - 1);
        let loc = ftl.locate(last);
        assert_eq!(loc.channel, cfg.channels - 1);
        assert_eq!(loc.page_in_block, cfg.chip.pages_per_block - 1);
    }

    #[test]
    fn gc_picks_min_valid_victim() {
        let cfg = small_cfg();
        let planes = cfg.total_planes() as u64;
        let ppb = cfg.chip.pages_per_block as u64;
        // Fill several blocks in plane 0 by writing LPNs striped there.
        let mut ftl = Ftl::new(&cfg, planes * ppb * 4).unwrap();
        ftl.precondition();
        // Overwrite most of one early plane-0 block's LPNs to make it sparse:
        // plane-0 pages hold LPNs ≡ 0 (mod planes) in precondition order.
        for i in 0..ppb - 2 {
            ftl.allocate_for_write(i * planes).unwrap();
        }
        let job = ftl.start_gc(0).expect("a full block exists");
        assert_eq!(job.plane, 0);
        assert!(
            job.moves.len() as u64 <= 2,
            "victim should be the sparsest block, had {} moves",
            job.moves.len()
        );
    }

    #[test]
    fn gc_move_and_finish_cycle() {
        let cfg = small_cfg();
        let planes = cfg.total_planes() as u64;
        let ppb = cfg.chip.pages_per_block as u64;
        let mut ftl = Ftl::new(&cfg, planes * ppb * 3).unwrap();
        ftl.precondition();
        let job = ftl.start_gc(0).unwrap();
        for &(lpn, src) in &job.moves {
            assert!(ftl.gc_move_still_needed(lpn, src));
            ftl.allocate_for_gc(lpn, job.plane).unwrap();
            assert!(!ftl.gc_move_still_needed(lpn, src));
            // Moved data is physically fresh now.
            assert!(!ftl.is_cold(lpn));
        }
        assert_eq!(ftl.block_valid_count(job.victim_block), 0);
        let free_before = ftl.free_blocks_in_plane(0);
        ftl.finish_gc(job.victim_block);
        assert_eq!(ftl.free_blocks_in_plane(0), free_before + 1);
    }

    #[test]
    fn footprint_validation() {
        let cfg = small_cfg();
        assert!(Ftl::new(&cfg, 0).is_err());
        assert!(Ftl::new(&cfg, cfg.max_lpns() + 1).is_err());
        assert!(Ftl::new(&cfg, cfg.max_lpns()).is_ok());
    }

    #[test]
    fn bulk_precondition_matches_per_page_allocator() {
        let cfg = small_cfg();
        for count in [1u64, 5, 37, 500, cfg.max_lpns()] {
            let mut fast = Ftl::new(&cfg, count).unwrap();
            fast.precondition();
            // The reference: the per-page allocator the bulk path replaces.
            let mut slow = Ftl::new(&cfg, count).unwrap();
            let planes = slow.total_planes() as u64;
            for lpn in 0..count {
                let alloc = slow.allocate_raw((lpn % planes) as u32).unwrap();
                slow.commit_write(lpn, alloc);
            }
            slow.fresh.fill(0);
            assert_eq!(fast.map, slow.map, "map diverged at footprint {count}");
            assert_eq!(fast.rmap, slow.rmap, "rmap diverged at footprint {count}");
            assert_eq!(
                fast.blocks, slow.blocks,
                "blocks diverged at footprint {count}"
            );
            assert_eq!(fast.open_block, slow.open_block);
            assert_eq!(fast.free_blocks, slow.free_blocks);
            assert_eq!(fast.fresh, slow.fresh);
        }
    }

    #[test]
    fn rebuild_matches_fresh_construction() {
        let cfg = small_cfg();
        // Dirty an FTL with writes and GC, then rebuild it for a different
        // footprint: it must behave exactly like a fresh one.
        let mut recycled = Ftl::new(&cfg, 500).unwrap();
        recycled.precondition();
        for lpn in 0..200 {
            recycled.allocate_for_write(lpn % 50).unwrap();
        }
        recycled.rebuild(&cfg, 300).unwrap();
        let mut fresh = Ftl::new(&cfg, 300).unwrap();
        recycled.precondition();
        fresh.precondition();
        assert_eq!(recycled.lpn_count(), fresh.lpn_count());
        for lpn in 0..300 {
            assert_eq!(recycled.translate(lpn), fresh.translate(lpn), "lpn {lpn}");
            assert_eq!(recycled.is_cold(lpn), fresh.is_cold(lpn));
        }
        let a = recycled.allocate_for_write(7).unwrap();
        let b = fresh.allocate_for_write(7).unwrap();
        assert_eq!(a, b);
        // Invalid rebuilds are rejected like invalid constructions.
        assert!(recycled.rebuild(&cfg, 0).is_err());
        assert!(recycled.rebuild(&cfg, cfg.max_lpns() + 1).is_err());
    }

    /// An FTL dirtied by host writes and a full GC cycle — the state a
    /// warm-start image is meant to carry.
    fn aged_ftl(cfg: &SsdConfig) -> Ftl {
        let mut ftl = Ftl::new(cfg, 500).unwrap();
        ftl.precondition();
        for lpn in 0..300 {
            ftl.allocate_for_write(lpn % 120).unwrap();
        }
        let job = ftl.start_gc(0).expect("full blocks exist");
        for &(lpn, src) in &job.moves {
            if ftl.gc_move_still_needed(lpn, src) {
                ftl.allocate_for_gc(lpn, job.plane).unwrap();
            }
        }
        ftl.finish_gc(job.victim_block);
        ftl
    }

    #[test]
    fn capture_restore_round_trip_is_exact() {
        let cfg = small_cfg();
        let ftl = aged_ftl(&cfg);
        let state = ftl.capture();
        // Restore into a recycled FTL of a *different* footprint.
        let mut restored = Ftl::new(&cfg, 64).unwrap();
        restored.precondition();
        restored.restore(&cfg, &state).unwrap();
        assert_eq!(restored.lpn_count(), ftl.lpn_count());
        for lpn in 0..500 {
            assert_eq!(restored.translate(lpn), ftl.translate(lpn), "lpn {lpn}");
            assert_eq!(restored.is_cold(lpn), ftl.is_cold(lpn), "lpn {lpn}");
        }
        assert_eq!(restored.capture(), state);
        // And the two devices evolve identically afterwards.
        let mut a = ftl;
        let mut b = restored;
        for lpn in 0..100 {
            assert_eq!(a.allocate_for_write(lpn), b.allocate_for_write(lpn));
        }
        assert_eq!(a.capture(), b.capture());
    }

    #[test]
    fn restore_rejects_geometry_mismatch() {
        let cfg = small_cfg();
        let state = aged_ftl(&cfg).capture();
        let mut other = cfg.clone();
        other.chip.blocks_per_plane = 32;
        let mut target = Ftl::new(&other, 500).unwrap();
        let err = target.restore(&other, &state).unwrap_err();
        assert!(err.to_string().contains("geometry"), "{err}");
    }

    #[test]
    fn encode_decode_round_trip_and_consistency_guard() {
        let cfg = small_cfg();
        let state = aged_ftl(&cfg).capture();
        let mut enc = Encoder::new(*b"FTLTEST\0", 1);
        state.encode(&mut enc);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes, *b"FTLTEST\0").unwrap();
        let decoded = FtlState::decode(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(decoded, state);
        // A structurally impossible device is rejected even when framing is
        // intact: shrink the footprint without shrinking the map.
        let mut bad = state.clone();
        bad.lpn_count -= 1;
        let mut enc = Encoder::new(*b"FTLTEST\0", 1);
        bad.encode(&mut enc);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes, *b"FTLTEST\0").unwrap();
        assert!(matches!(
            FtlState::decode(&mut dec),
            Err(CodecError::Invalid { .. })
        ));
    }

    #[test]
    fn decode_rejects_an_rmap_naming_an_out_of_footprint_lpn() {
        let cfg = small_cfg();
        let mut bad = aged_ftl(&cfg).capture();
        let page = bad
            .rmap
            .iter()
            .position(|&r| r != NO_LPN)
            .expect("an aged FTL maps pages");
        bad.rmap[page] = bad.lpn_count as u32;
        let mut enc = Encoder::new(*b"FTLTEST\0", 1);
        bad.encode(&mut enc);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes, *b"FTLTEST\0").unwrap();
        match FtlState::decode(&mut dec) {
            Err(CodecError::Invalid { what }) => {
                assert!(what.contains("out-of-footprint lpn"), "{what}")
            }
            other => panic!("expected a typed invalid-image error, got {other:?}"),
        }
    }

    #[test]
    fn gc_hint_fires_at_threshold() {
        let cfg = small_cfg();
        let mut ftl = Ftl::new(&cfg, cfg.max_lpns()).unwrap();
        ftl.precondition();
        // Writing continuously must eventually produce a GC hint.
        let mut hinted = false;
        for lpn in 0..cfg.max_lpns() {
            if ftl.allocate_for_write(lpn).unwrap().gc_hint.is_some() {
                hinted = true;
                break;
            }
        }
        assert!(hinted, "filling the SSD should trigger a GC hint");
    }
}
