//! The split virtqueue and its grant-backed memory.
//!
//! A virtqueue generalizes `kh_hafnium::ring::SharedRing` along three
//! axes the byte FIFO cannot express:
//!
//! 1. **Descriptors.** Buffers are referenced by descriptor id, not
//!    copied inline, so a completion can carry "the device wrote 1500
//!    bytes into descriptor 7" and buffers can be recycled out of order.
//! 2. **Two-ring handshake.** The driver publishes work on the *avail*
//!    ring; the device returns completions on the *used* ring. Both are
//!    free-running counters over power-of-two slot arrays, exactly like
//!    `SharedRing`'s head/tail pair.
//! 3. **Event-index suppression.** Each side advertises the counter
//!    value at which it next wants waking (`avail_event`/`used_event`),
//!    so doorbells and completion interrupts are batched instead of
//!    fired per buffer — the mechanism behind `IoChannel`'s simpler
//!    every-N doorbell batching.
//!
//! Queue memory is not ambient: [`QueueRegion::establish`] allocates it
//! through the SPM's audited share-grant path, mapping the region into
//! exactly the driver VM and the device VM. `QueueRegion::verify`
//! re-checks both mappings and the isolation audit, and the isolation
//! test suite proves a third VM can neither translate the queue IPA nor
//! reach its physical pages.

use kh_hafnium::shmem::ShareGrant;
use kh_hafnium::spm::{Spm, SpmError};
use kh_hafnium::vm::VmId;
use serde::{Deserialize, Serialize};

/// Queue sizes are power-of-two and bounded, as in virtio 1.0.
pub const MAX_QUEUE_SIZE: u16 = 1024;

/// Errors surfaced by queue operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueError {
    /// No free descriptors (driver is ahead of the device).
    Full,
    /// Descriptor id out of range or not currently posted.
    BadDescriptor,
    /// Queue size not a power of two or above [`MAX_QUEUE_SIZE`].
    BadSize,
    /// The backing share grant is too small for this queue layout.
    RegionTooSmall,
    /// A ring entry named a descriptor that is out of range, not posted,
    /// or chained into a cycle — shared queue memory was corrupted by
    /// the peer (or a fault injection). The entry is consumed and the
    /// error surfaced; the queue itself stays usable.
    Corrupt,
}

/// Per-queue counters; the figure harness reads these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueStats {
    /// Buffers made available to the device.
    pub added: u64,
    /// Buffers the device completed.
    pub completed: u64,
    /// Doorbells actually rung.
    pub kicks: u64,
    /// Doorbells suppressed by the avail-event index.
    pub kicks_suppressed: u64,
    /// Completion interrupts actually raised.
    pub irqs: u64,
    /// Completion interrupts suppressed by the used-event index.
    pub irqs_suppressed: u64,
    /// Driver→device payload bytes.
    pub bytes_down: u64,
    /// Device→driver payload bytes.
    pub bytes_up: u64,
    /// Ring entries rejected by descriptor-chain validation.
    pub corruptions: u64,
}

#[derive(Debug, Clone, Default)]
struct Desc {
    buf: Vec<u8>,
    /// Device-writable (an "in" buffer in virtio terms).
    write: bool,
    /// Next descriptor in the chain.
    next: Option<u16>,
    in_use: bool,
}

/// A completed chain returned by [`Virtqueue::poll_used`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// Head descriptor id of the chain.
    pub head: u16,
    /// Bytes the device reported writing into the chain.
    pub written: u32,
    /// Contents of the device-writable buffer, truncated to `written`
    /// (empty for out-only chains).
    pub data: Vec<u8>,
}

/// The split virtqueue. One struct carries both roles — the simulation
/// is a single address space — but the API is split: `add_*`/`kick`/
/// `poll_used` belong to the driver, `pop_avail`/`push_used`/`interrupt`
/// to the device. Free-running `u64` counters index the power-of-two
/// rings exactly as `SharedRing` does.
#[derive(Debug)]
pub struct Virtqueue {
    size: u16,
    desc: Vec<Desc>,
    free: Vec<u16>,
    avail_ring: Vec<u16>,
    used_ring: Vec<(u16, u32)>,
    /// Driver's publish counter (avail idx).
    avail_idx: u64,
    /// Device's consume progress over the avail ring.
    last_avail: u64,
    /// Device's publish counter (used idx).
    used_idx: u64,
    /// Driver's consume progress over the used ring.
    last_used: u64,
    /// Device: "kick me once avail_idx passes this".
    avail_event: u64,
    /// Driver: "interrupt me once used_idx passes this".
    used_event: u64,
    /// Event-index suppression negotiated (both sides batch).
    event_idx: bool,
    pub stats: QueueStats,
}

impl Virtqueue {
    pub fn new(size: u16, event_idx: bool) -> Result<Self, QueueError> {
        if size == 0 || !size.is_power_of_two() || size > MAX_QUEUE_SIZE {
            return Err(QueueError::BadSize);
        }
        Ok(Virtqueue {
            size,
            desc: vec![Desc::default(); size as usize],
            free: (0..size).rev().collect(),
            avail_ring: vec![0; size as usize],
            used_ring: vec![(0, 0); size as usize],
            avail_idx: 0,
            last_avail: 0,
            used_idx: 0,
            last_used: 0,
            avail_event: 0,
            used_event: 0,
            event_idx,
            stats: QueueStats::default(),
        })
    }

    pub fn size(&self) -> u16 {
        self.size
    }

    /// Descriptors currently posted or in flight.
    pub fn in_flight(&self) -> u16 {
        self.size - self.free.len() as u16
    }

    /// Bytes of shared memory a queue of `size` entries with `buf_bytes`
    /// payload buffers needs: descriptor table (16 B each), avail ring
    /// (6 + 2 B each), used ring (6 + 8 B each), and the buffer arena.
    pub fn region_bytes(size: u16, buf_bytes: u32) -> u64 {
        let n = size as u64;
        16 * n + (6 + 2 * n) + (6 + 8 * n) + n * buf_bytes as u64
    }

    fn slot(&self, counter: u64) -> usize {
        (counter & (self.size as u64 - 1)) as usize
    }

    /// Wrap-safe "a is past b" over free-running counters: the signed
    /// distance is what matters, exactly as in virtio's `vring_need_event`.
    /// Valid while the two counters stay within `i64::MAX` of each other,
    /// which queue-size bounds guarantee.
    fn counter_after(a: u64, b: u64) -> bool {
        a.wrapping_sub(b) as i64 > 0
    }

    // -- driver side --------------------------------------------------

    fn alloc(&mut self) -> Result<u16, QueueError> {
        self.free.pop().ok_or(QueueError::Full)
    }

    fn publish(&mut self, head: u16) {
        let slot = self.slot(self.avail_idx);
        self.avail_ring[slot] = head;
        self.avail_idx = self.avail_idx.wrapping_add(1);
        self.stats.added += 1;
    }

    /// Post a device-readable buffer (tx frame, blk write request). The
    /// bytes are copied into the descriptor's own buffer, which keeps
    /// its allocation across recycles.
    pub fn add_outbuf(&mut self, data: &[u8]) -> Result<u16, QueueError> {
        let id = self.alloc()?;
        let d = &mut self.desc[id as usize];
        d.buf.clear();
        d.buf.extend_from_slice(data);
        d.write = false;
        d.next = None;
        d.in_use = true;
        self.stats.bytes_down += data.len() as u64;
        self.publish(id);
        Ok(id)
    }

    /// Post a zeroed device-writable buffer of `capacity` bytes (rx
    /// frame slot), reusing the descriptor's allocation.
    pub fn add_inbuf(&mut self, capacity: u32) -> Result<u16, QueueError> {
        let id = self.alloc()?;
        let d = &mut self.desc[id as usize];
        d.buf.clear();
        d.buf.resize(capacity as usize, 0);
        d.write = true;
        d.next = None;
        d.in_use = true;
        self.publish(id);
        Ok(id)
    }

    /// Post a two-descriptor chain: a device-readable header/payload
    /// followed by a device-writable response buffer (the virtio-blk
    /// read shape). Returns the head id.
    pub fn add_chain(&mut self, out: &[u8], in_capacity: u32) -> Result<u16, QueueError> {
        let head = self.alloc()?;
        let tail = match self.alloc() {
            Ok(t) => t,
            Err(e) => {
                self.free.push(head);
                return Err(e);
            }
        };
        {
            let d = &mut self.desc[tail as usize];
            d.buf.clear();
            d.buf.resize(in_capacity as usize, 0);
            d.write = true;
            d.next = None;
            d.in_use = true;
        }
        {
            let d = &mut self.desc[head as usize];
            d.buf.clear();
            d.buf.extend_from_slice(out);
            d.write = false;
            d.next = Some(tail);
            d.in_use = true;
        }
        self.stats.bytes_down += out.len() as u64;
        self.publish(head);
        Ok(head)
    }

    /// Would ringing the doorbell now actually notify the device? With
    /// event-index suppression the device parks its `avail_event` ahead
    /// of the published counter to batch kicks.
    pub fn needs_kick(&self) -> bool {
        !self.event_idx || Self::counter_after(self.avail_idx, self.avail_event)
    }

    /// Ring the doorbell. Returns whether a notification fired (false
    /// when suppressed — the device will poll the ring anyway).
    pub fn kick(&mut self) -> bool {
        if self.needs_kick() {
            self.stats.kicks += 1;
            true
        } else {
            self.stats.kicks_suppressed += 1;
            false
        }
    }

    /// Driver-side interrupt batching: don't interrupt until `batch`
    /// more completions are posted.
    pub fn suppress_interrupts_for(&mut self, batch: u64) {
        self.used_event = self.used_idx.wrapping_add(batch.saturating_sub(1));
    }

    /// Reap one completion, recycling its descriptors. Returns
    /// `Ok(None)` when the used ring is empty and [`QueueError::Corrupt`]
    /// when the next entry fails descriptor-chain validation (the entry
    /// is consumed; the queue stays usable).
    pub fn try_poll_used(&mut self) -> Result<Option<Completion>, QueueError> {
        let mut data = Vec::new();
        Ok(self
            .reap_used(Some(&mut data))?
            .map(|(head, written)| Completion {
                head,
                written,
                data,
            }))
    }

    /// [`Self::try_poll_used`] without copying the device-written bytes
    /// out: the chain's buffers stay in the ring for the next post.
    /// Returns the head id and the `written` count.
    pub fn try_reap_used(&mut self) -> Result<Option<(u16, u32)>, QueueError> {
        self.reap_used(None)
    }

    /// Consume the next used entry and free its chain, buffers kept in
    /// place. With `data`, the device-writable buffer's first `written`
    /// bytes are copied into it.
    fn reap_used(
        &mut self,
        mut data: Option<&mut Vec<u8>>,
    ) -> Result<Option<(u16, u32)>, QueueError> {
        if self.used_pending() == 0 {
            return Ok(None);
        }
        let (head, written) = self.used_ring[self.slot(self.last_used)];
        self.last_used = self.last_used.wrapping_add(1);
        self.validate_chain(head)?;
        let mut cursor = Some(head);
        while let Some(id) = cursor {
            let d = &mut self.desc[id as usize];
            if let (true, Some(out)) = (d.write, data.as_deref_mut()) {
                out.extend_from_slice(&d.buf[..d.buf.len().min(written as usize)]);
            }
            d.in_use = false;
            cursor = d.next.take();
            self.free.push(id);
        }
        Ok(Some((head, written)))
    }

    /// [`Self::try_poll_used`] with corruption folded into `None` (the
    /// error stays visible in `stats.corruptions`). Prefer the fallible
    /// form in device/driver code.
    pub fn poll_used(&mut self) -> Option<Completion> {
        self.try_poll_used().ok().flatten()
    }

    /// Walk a chain read off a ring, proving every hop names a posted
    /// descriptor and the chain terminates. A corrupted ring can name an
    /// out-of-range id, a free descriptor, or splice a cycle; all are
    /// rejected without touching descriptor state.
    fn validate_chain(&mut self, head: u16) -> Result<(), QueueError> {
        let mut cursor = Some(head);
        let mut hops = 0u32;
        while let Some(id) = cursor {
            let ok = self.desc.get(id as usize).filter(|d| d.in_use);
            let Some(d) = ok else {
                self.stats.corruptions += 1;
                return Err(QueueError::Corrupt);
            };
            hops += 1;
            if hops > self.size as u32 {
                // Longer than every descriptor chained once: a cycle.
                self.stats.corruptions += 1;
                return Err(QueueError::Corrupt);
            }
            cursor = d.next;
        }
        Ok(())
    }

    // -- device side --------------------------------------------------

    /// Take the next available chain head, if any, validating it the way
    /// a defensive device must: the driver side of the ring is untrusted
    /// shared memory. Corrupt entries are consumed and surfaced.
    pub fn try_pop_avail(&mut self) -> Result<Option<u16>, QueueError> {
        if self.avail_pending() == 0 {
            return Ok(None);
        }
        let head = self.avail_ring[self.slot(self.last_avail)];
        self.last_avail = self.last_avail.wrapping_add(1);
        self.validate_chain(head)?;
        Ok(Some(head))
    }

    /// [`Self::try_pop_avail`] with corruption folded into `None` (the
    /// error stays visible in `stats.corruptions`).
    pub fn pop_avail(&mut self) -> Option<u16> {
        self.try_pop_avail().ok().flatten()
    }

    /// Device-side doorbell batching: no kick needed until `batch` more
    /// buffers are published past the device's current position.
    pub fn suppress_kicks_for(&mut self, batch: u64) {
        self.avail_event = self.last_avail.wrapping_add(batch.saturating_sub(1));
    }

    // -- fault injection ----------------------------------------------

    /// Simulate peer-side memory corruption: publish a bogus avail entry
    /// exactly as a misbehaving driver scribbling on shared queue memory
    /// would. Bypasses the descriptor allocator and stats on purpose.
    pub fn inject_corrupt_avail(&mut self, head: u16) {
        let slot = self.slot(self.avail_idx);
        self.avail_ring[slot] = head;
        self.avail_idx = self.avail_idx.wrapping_add(1);
    }

    /// Simulate device-side memory corruption: publish a bogus used
    /// entry for the driver to trip over.
    pub fn inject_corrupt_used(&mut self, head: u16, written: u32) {
        let slot = self.slot(self.used_idx);
        self.used_ring[slot] = (head, written);
        self.used_idx = self.used_idx.wrapping_add(1);
    }

    /// The device-readable bytes of a chain (the out descriptor).
    pub fn out_bytes(&self, head: u16) -> Result<&[u8], QueueError> {
        let d = self
            .desc
            .get(head as usize)
            .filter(|d| d.in_use)
            .ok_or(QueueError::BadDescriptor)?;
        if d.write {
            // In-only chain: no device-readable part.
            return Ok(&[]);
        }
        Ok(&d.buf)
    }

    /// The device-writable buffer of a chain (the in descriptor), if any.
    pub fn in_buf_mut(&mut self, head: u16) -> Result<&mut Vec<u8>, QueueError> {
        let tail = {
            let d = self
                .desc
                .get(head as usize)
                .filter(|d| d.in_use)
                .ok_or(QueueError::BadDescriptor)?;
            if d.write {
                head
            } else {
                d.next.ok_or(QueueError::BadDescriptor)?
            }
        };
        let d = self
            .desc
            .get_mut(tail as usize)
            .filter(|d| d.in_use && d.write)
            .ok_or(QueueError::BadDescriptor)?;
        Ok(&mut d.buf)
    }

    /// Return a chain on the used ring with `written` device bytes.
    pub fn push_used(&mut self, head: u16, written: u32) -> Result<(), QueueError> {
        if self.desc.get(head as usize).map(|d| d.in_use) != Some(true) {
            return Err(QueueError::BadDescriptor);
        }
        let slot = self.slot(self.used_idx);
        self.used_ring[slot] = (head, written);
        self.used_idx = self.used_idx.wrapping_add(1);
        self.stats.completed += 1;
        self.stats.bytes_up += written as u64;
        Ok(())
    }

    /// Would raising the completion interrupt now reach the driver?
    pub fn needs_interrupt(&self) -> bool {
        !self.event_idx || Self::counter_after(self.used_idx, self.used_event)
    }

    /// Raise (or suppress) the completion interrupt.
    pub fn interrupt(&mut self) -> bool {
        if self.needs_interrupt() {
            self.stats.irqs += 1;
            true
        } else {
            self.stats.irqs_suppressed += 1;
            false
        }
    }

    /// Bytes of buffer capacity held by the descriptor table. Recycled
    /// descriptors keep their buffers, so a steady-state loop holds
    /// this constant.
    #[cfg(test)]
    pub(crate) fn buffer_capacity(&self) -> usize {
        self.desc.iter().map(|d| d.buf.capacity()).sum()
    }

    /// Completions published but not yet reaped by the driver.
    pub fn used_pending(&self) -> u64 {
        self.used_idx.wrapping_sub(self.last_used)
    }

    /// Buffers published but not yet consumed by the device.
    pub fn avail_pending(&self) -> u64 {
        self.avail_idx.wrapping_sub(self.last_avail)
    }
}

/// Queue memory established through the SPM's audited share-grant path.
/// The grant maps one IPA window into exactly the driver VM and the
/// device VM; everyone else's stage-2 tables never see the pages.
#[derive(Debug, Clone, Copy)]
pub struct QueueRegion {
    pub grant: ShareGrant,
    pub driver_vm: VmId,
    pub device_vm: VmId,
}

impl QueueRegion {
    /// Broker (via the primary) a share grant sized for `queues` queues
    /// of `size` entries with `buf_bytes` buffers each.
    pub fn establish(
        spm: &mut Spm,
        driver_vm: VmId,
        device_vm: VmId,
        queues: u16,
        size: u16,
        buf_bytes: u32,
    ) -> Result<Self, SpmError> {
        let bytes = Virtqueue::region_bytes(size, buf_bytes) * queues as u64;
        let grant = spm.share_memory(VmId::PRIMARY, driver_vm, device_vm, bytes)?;
        Ok(QueueRegion {
            grant,
            driver_vm,
            device_vm,
        })
    }

    /// Both parties can reach the queue pages; the isolation audit still
    /// passes (the grant is declared, so the overlap is authorized).
    pub fn verify(&self, spm: &Spm) -> bool {
        use kh_arch::mmu::AccessKind;
        let mapped = |vm: VmId, spm: &Spm| {
            spm.vm(vm)
                .map(|v| {
                    v.stage2
                        .translate(self.grant.ipa, AccessKind::Write)
                        .is_ok()
                })
                .unwrap_or(false)
        };
        mapped(self.driver_vm, spm) && mapped(self.device_vm, spm) && spm.audit_isolation().is_ok()
    }

    /// Tear the grant down (both mappings vanish, memory is scrubbed).
    pub fn revoke(self, spm: &mut Spm) -> Result<(), SpmError> {
        spm.revoke_share(VmId::PRIMARY, self.grant.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_sizes() {
        assert_eq!(Virtqueue::new(0, false).err(), Some(QueueError::BadSize));
        assert_eq!(Virtqueue::new(24, false).err(), Some(QueueError::BadSize));
        assert_eq!(Virtqueue::new(2048, false).err(), Some(QueueError::BadSize));
        assert!(Virtqueue::new(256, true).is_ok());
    }

    #[test]
    fn out_in_round_trip() {
        let mut q = Virtqueue::new(8, false).unwrap();
        let id = q.add_outbuf(b"hello").unwrap();
        assert_eq!(q.pop_avail(), Some(id));
        assert_eq!(q.out_bytes(id).unwrap(), b"hello");
        q.push_used(id, 0).unwrap();
        let c = q.poll_used().unwrap();
        assert_eq!(c.head, id);
        assert!(c.data.is_empty());
        assert_eq!(q.in_flight(), 0);
    }

    #[test]
    fn inbuf_carries_device_bytes_back() {
        let mut q = Virtqueue::new(8, false).unwrap();
        let id = q.add_inbuf(64).unwrap();
        let head = q.pop_avail().unwrap();
        assert_eq!(head, id);
        q.in_buf_mut(head).unwrap()[..3].copy_from_slice(b"abc");
        q.push_used(head, 3).unwrap();
        let c = q.poll_used().unwrap();
        assert_eq!(c.data, b"abc");
        assert_eq!(c.written, 3);
    }

    #[test]
    fn chain_read_shape() {
        let mut q = Virtqueue::new(8, false).unwrap();
        let head = q.add_chain(b"hdr", 16).unwrap();
        let got = q.pop_avail().unwrap();
        assert_eq!(got, head);
        assert_eq!(q.out_bytes(head).unwrap(), b"hdr");
        q.in_buf_mut(head).unwrap()[..4].copy_from_slice(b"data");
        q.push_used(head, 4).unwrap();
        let c = q.poll_used().unwrap();
        assert_eq!(c.data, b"data");
        // Both descriptors recycled.
        assert_eq!(q.in_flight(), 0);
    }

    #[test]
    fn recycled_outbuf_exposes_only_the_new_frame() {
        let mut q = Virtqueue::new(1, false).unwrap();
        let long = q.add_outbuf(&[0xAA; 1024]).unwrap();
        let h = q.pop_avail().unwrap();
        q.push_used(h, 0).unwrap();
        assert!(q.poll_used().is_some());
        let short = q.add_outbuf(b"short").unwrap();
        assert_eq!(short, long, "the one descriptor is recycled");
        assert_eq!(q.pop_avail(), Some(short));
        assert_eq!(q.out_bytes(short).unwrap(), b"short");
    }

    #[test]
    fn recycled_inbuf_yields_exactly_written_bytes() {
        let mut q = Virtqueue::new(1, false).unwrap();
        let first = q.add_inbuf(64).unwrap();
        let h = q.pop_avail().unwrap();
        q.in_buf_mut(h).unwrap().fill(0xEE);
        q.push_used(h, 40).unwrap();
        assert_eq!(q.poll_used().unwrap().data, vec![0xEE; 40]);

        // Re-posted: zeroed to the new capacity, no stale device bytes.
        let again = q.add_inbuf(16).unwrap();
        assert_eq!(again, first);
        let h = q.pop_avail().unwrap();
        let buf = q.in_buf_mut(h).unwrap();
        assert_eq!(buf.as_slice(), &[0u8; 16]);
        buf[..3].copy_from_slice(b"abc");
        q.push_used(h, 3).unwrap();
        let c = q.poll_used().unwrap();
        assert_eq!((c.written, c.data), (3, b"abc".to_vec()));

        // The copy-free reap reports the same count and leaves the
        // buffer in place.
        q.add_inbuf(16).unwrap();
        let h = q.pop_avail().unwrap();
        q.push_used(h, 7).unwrap();
        assert_eq!(q.try_reap_used(), Ok(Some((h, 7))));
        assert_eq!(q.in_flight(), 0);
        assert!(q.buffer_capacity() >= 64, "allocation kept for reuse");
    }

    #[test]
    fn fills_at_capacity_and_recovers() {
        let mut q = Virtqueue::new(4, false).unwrap();
        let mut ids = Vec::new();
        for i in 0..4 {
            ids.push(q.add_outbuf(&[i]).unwrap());
        }
        assert_eq!(q.add_outbuf(b"x").err(), Some(QueueError::Full));
        // Device drains one, driver can post again.
        let h = q.pop_avail().unwrap();
        q.push_used(h, 0).unwrap();
        assert!(q.poll_used().is_some());
        assert!(q.add_outbuf(b"y").is_ok());
    }

    #[test]
    fn wraps_past_ring_size_many_times() {
        let mut q = Virtqueue::new(4, false).unwrap();
        for round in 0u64..100 {
            let id = q.add_outbuf(&round.to_le_bytes()).unwrap();
            let h = q.pop_avail().unwrap();
            assert_eq!(h, id);
            assert_eq!(q.out_bytes(h).unwrap(), &round.to_le_bytes());
            q.push_used(h, 0).unwrap();
            assert_eq!(q.poll_used().unwrap().head, id);
        }
        assert_eq!(q.stats.added, 100);
        assert_eq!(q.stats.completed, 100);
    }

    #[test]
    fn event_idx_suppresses_kicks_until_threshold() {
        let mut q = Virtqueue::new(16, true).unwrap();
        // Device parks the avail event 8 ahead.
        q.suppress_kicks_for(8);
        let mut fired = 0;
        for i in 0..8u8 {
            q.add_outbuf(&[i]).unwrap();
            if q.kick() {
                fired += 1;
            }
        }
        assert_eq!(fired, 1, "only the 8th publish crosses avail_event");
        assert_eq!(q.stats.kicks_suppressed, 7);
    }

    #[test]
    fn event_idx_suppresses_interrupts_until_threshold() {
        let mut q = Virtqueue::new(16, true).unwrap();
        q.suppress_interrupts_for(4);
        for i in 0..4u8 {
            q.add_outbuf(&[i]).unwrap();
        }
        let mut fired = 0;
        for _ in 0..4 {
            let h = q.pop_avail().unwrap();
            q.push_used(h, 0).unwrap();
            if q.interrupt() {
                fired += 1;
            }
        }
        assert_eq!(fired, 1, "only the 4th completion crosses used_event");
        assert_eq!(q.stats.irqs_suppressed, 3);
    }

    #[test]
    fn legacy_mode_always_notifies() {
        let mut q = Virtqueue::new(8, false).unwrap();
        q.suppress_kicks_for(100);
        q.suppress_interrupts_for(100);
        q.add_outbuf(b"a").unwrap();
        assert!(q.kick());
        let h = q.pop_avail().unwrap();
        q.push_used(h, 0).unwrap();
        assert!(q.interrupt());
    }

    #[test]
    fn bad_descriptor_ops_are_rejected() {
        let mut q = Virtqueue::new(8, false).unwrap();
        assert_eq!(q.out_bytes(3).err(), Some(QueueError::BadDescriptor));
        assert_eq!(q.push_used(3, 0).err(), Some(QueueError::BadDescriptor));
        assert_eq!(q.push_used(99, 0).err(), Some(QueueError::BadDescriptor));
        let id = q.add_outbuf(b"z").unwrap();
        assert_eq!(q.in_buf_mut(id).err(), Some(QueueError::BadDescriptor));
    }

    /// Start every free-running counter just shy of u64::MAX so the
    /// next few operations cross the wrap boundary.
    fn near_wrap(size: u16, event_idx: bool) -> Virtqueue {
        let mut q = Virtqueue::new(size, event_idx).unwrap();
        let base = u64::MAX - 2;
        q.avail_idx = base;
        q.last_avail = base;
        q.used_idx = base;
        q.last_used = base;
        q.avail_event = base;
        q.used_event = base;
        q
    }

    #[test]
    fn round_trips_across_counter_wrap() {
        let mut q = near_wrap(8, false);
        for round in 0u64..8 {
            let id = q.add_outbuf(&round.to_le_bytes()).unwrap();
            assert_eq!(q.avail_pending(), 1, "round {round}");
            let h = q.pop_avail().unwrap();
            assert_eq!(h, id);
            q.push_used(h, 0).unwrap();
            assert_eq!(q.used_pending(), 1, "round {round}");
            assert_eq!(q.poll_used().unwrap().head, id);
            assert_eq!(q.used_pending(), 0);
        }
        // The counters did wrap during those rounds.
        assert!(q.avail_idx < 8, "avail_idx wrapped: {}", q.avail_idx);
    }

    #[test]
    fn event_suppression_is_wrap_safe() {
        // suppress_kicks_for parks avail_event across the wrap boundary;
        // the unwrapped `>` comparison would see avail_idx (tiny, post-
        // wrap) vs avail_event (huge) and kick on every publish.
        let mut q = near_wrap(16, true);
        q.suppress_kicks_for(8);
        let mut fired = 0;
        for i in 0..8u8 {
            q.add_outbuf(&[i]).unwrap();
            if q.kick() {
                fired += 1;
            }
        }
        assert_eq!(fired, 1, "only the 8th publish crosses avail_event");
        assert_eq!(q.stats.kicks_suppressed, 7);

        // Same for the interrupt side: used_event wraps, completions
        // land at small post-wrap used_idx values.
        q.suppress_interrupts_for(4);
        let mut irqs = 0;
        for _ in 0..8 {
            let h = q.pop_avail().unwrap();
            q.push_used(h, 0).unwrap();
            if q.interrupt() {
                irqs += 1;
            }
        }
        assert_eq!(irqs, 5, "suppressed until the 4th, then every one");
    }

    #[test]
    fn corrupt_avail_entry_is_surfaced_not_panicked() {
        let mut q = Virtqueue::new(8, false).unwrap();
        q.add_outbuf(b"good").unwrap();
        q.inject_corrupt_avail(99); // out of range
        q.inject_corrupt_avail(5); // in range but never posted
        assert!(q.try_pop_avail().unwrap().is_some(), "good entry first");
        assert_eq!(q.try_pop_avail(), Err(QueueError::Corrupt));
        assert_eq!(q.try_pop_avail(), Err(QueueError::Corrupt));
        assert_eq!(q.try_pop_avail(), Ok(None), "corrupt entries consumed");
        assert_eq!(q.stats.corruptions, 2);
    }

    #[test]
    fn corrupt_used_entry_is_surfaced_not_panicked() {
        let mut q = Virtqueue::new(8, false).unwrap();
        let id = q.add_outbuf(b"x").unwrap();
        let h = q.pop_avail().unwrap();
        q.inject_corrupt_used(200, 4); // out of range
        q.push_used(h, 0).unwrap();
        assert_eq!(q.try_poll_used(), Err(QueueError::Corrupt));
        let c = q.try_poll_used().unwrap().unwrap();
        assert_eq!(c.head, id, "queue recovers after the corrupt entry");
        assert_eq!(q.stats.corruptions, 1);
    }

    #[test]
    fn chain_cycle_is_detected() {
        let mut q = Virtqueue::new(8, false).unwrap();
        let head = q.add_chain(b"hdr", 16).unwrap();
        // Corrupt the chain into a self-loop before the device reads it.
        let tail = q.desc[head as usize].next.unwrap();
        q.desc[tail as usize].next = Some(head);
        assert_eq!(q.try_pop_avail(), Err(QueueError::Corrupt));
        assert_eq!(q.stats.corruptions, 1);
    }

    #[test]
    fn infallible_wrappers_fold_corruption_into_none() {
        let mut q = Virtqueue::new(8, false).unwrap();
        q.inject_corrupt_avail(99);
        assert_eq!(q.pop_avail(), None);
        q.inject_corrupt_used(99, 0);
        assert!(q.poll_used().is_none());
        assert_eq!(q.stats.corruptions, 2);
    }

    #[test]
    fn region_bytes_scale_with_size_and_buffers() {
        let small = Virtqueue::region_bytes(64, 1500);
        let big = Virtqueue::region_bytes(256, 1500);
        assert!(big > small);
        assert!(Virtqueue::region_bytes(64, 4096) > small);
    }
}
