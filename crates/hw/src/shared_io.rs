//! The shared IO DRAM region between model cores and hypervisor cores.
//!
//! In the paper's design (§3.2), a model core cannot touch devices directly;
//! "to issue an IO request, a model core writes the request [to] a special IO
//! DRAM region shared by the model and Guillotine, and then raises an
//! interrupt on a hypervisor core". This module implements that region as a
//! pair of descriptor rings (requests from the model, responses from the
//! hypervisor) laid out in a dedicated DRAM module.
//!
//! The ring layout (all fields little-endian u64 unless noted):
//!
//! ```text
//! 0x0000  request ring header:  head, tail
//! 0x0040  request slots:        SLOT_COUNT × SLOT_SIZE bytes
//! 0x8000  response ring header: head, tail
//! 0x8040  response slots:       SLOT_COUNT × SLOT_SIZE bytes
//! ```
//!
//! Each slot holds an [`IoDescriptor`]: port id, opcode, payload length and
//! up to [`MAX_PAYLOAD`] payload bytes.

use guillotine_mem::Dram;
use guillotine_types::{GuillotineError, PortId, Result};

/// Number of descriptor slots in each ring.
pub const SLOT_COUNT: u64 = 64;
/// Size of one descriptor slot in bytes.
pub const SLOT_SIZE: u64 = 512;
/// Maximum payload bytes carried inline in one descriptor.
pub const MAX_PAYLOAD: usize = (SLOT_SIZE - 32) as usize;

const REQ_HEADER: u64 = 0x0000;
const REQ_SLOTS: u64 = 0x0040;
const RESP_HEADER: u64 = 0x8000;
const RESP_SLOTS: u64 = 0x8040;
/// Total size of the shared IO region in bytes.
pub const SHARED_IO_SIZE: usize = 0x10040 + (SLOT_COUNT * SLOT_SIZE) as usize;

/// The operation a model requests on a port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum IoOpcode {
    /// Send payload bytes out through the port.
    Send = 1,
    /// Receive bytes from the port (payload carries a length hint).
    Receive = 2,
    /// Query port status.
    Status = 3,
    /// Open/attach to the port.
    Open = 4,
    /// Close/detach from the port.
    Close = 5,
}

impl IoOpcode {
    /// Decodes an opcode from its wire value.
    pub fn from_u32(v: u32) -> Option<IoOpcode> {
        Some(match v {
            1 => IoOpcode::Send,
            2 => IoOpcode::Receive,
            3 => IoOpcode::Status,
            4 => IoOpcode::Open,
            5 => IoOpcode::Close,
            _ => return None,
        })
    }
}

/// One IO request or response descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoDescriptor {
    /// The port capability this request targets.
    pub port: PortId,
    /// What to do.
    pub opcode: IoOpcode,
    /// Status code (0 in requests; hypervisor fills it in responses).
    pub status: u32,
    /// Request sequence number (echoed in the matching response).
    pub sequence: u64,
    /// Inline payload.
    pub payload: Vec<u8>,
}

impl IoDescriptor {
    /// Creates a request descriptor.
    pub fn request(port: PortId, opcode: IoOpcode, sequence: u64, payload: Vec<u8>) -> Self {
        IoDescriptor {
            port,
            opcode,
            status: 0,
            sequence,
            payload,
        }
    }

    /// Creates a response descriptor answering `request` with `status` and
    /// `payload`.
    pub fn response_to(request: &IoDescriptor, status: u32, payload: Vec<u8>) -> Self {
        IoDescriptor {
            port: request.port,
            opcode: request.opcode,
            status,
            sequence: request.sequence,
            payload,
        }
    }
}

/// The shared IO DRAM region.
///
/// Both sides operate on the same underlying [`Dram`]; the *model* side is
/// reachable from model cores through the bus adapter, and the *hypervisor*
/// side is reachable from hypervisor cores. All traffic through this region
/// is observable by the hypervisor, which is what enables Guillotine's
/// synchronous monitoring and audit logging (§3.3).
#[derive(Debug, Clone)]
pub struct SharedIoDram {
    dram: Dram,
}

impl Default for SharedIoDram {
    fn default() -> Self {
        SharedIoDram::new()
    }
}

impl SharedIoDram {
    /// Creates an empty shared IO region.
    pub fn new() -> Self {
        SharedIoDram {
            dram: Dram::with_latency(SHARED_IO_SIZE, 60),
        }
    }

    /// Raw access used by the model-core bus adapter (reads/writes inside the
    /// IO window). Offsets are relative to the start of the region.
    pub fn raw_read(&mut self, offset: u64, size: u8) -> Result<u64> {
        self.dram.read_u64(offset, size)
    }

    /// Raw write access used by the model-core bus adapter.
    pub fn raw_write(&mut self, offset: u64, size: u8, value: u64) -> Result<()> {
        self.dram.write_u64(offset, size, value)
    }

    /// The fixed access latency of the (uncached) shared region.
    pub fn latency(&self) -> u64 {
        self.dram.latency()
    }

    fn read_ring_header(&mut self, base: u64) -> Result<(u64, u64)> {
        let head = self.dram.read_u64(base, 8)?;
        let tail = self.dram.read_u64(base + 8, 8)?;
        Ok((head, tail))
    }

    fn write_ring_header(&mut self, base: u64, head: u64, tail: u64) -> Result<()> {
        self.dram.write_u64(base, 8, head)?;
        self.dram.write_u64(base + 8, 8, tail)
    }

    fn write_descriptor(&mut self, slot_base: u64, d: &IoDescriptor) -> Result<()> {
        if d.payload.len() > MAX_PAYLOAD {
            return Err(GuillotineError::port(format!(
                "payload of {} bytes exceeds slot capacity {MAX_PAYLOAD}",
                d.payload.len()
            )));
        }
        self.dram.write_u64(slot_base, 4, d.port.raw() as u64)?;
        self.dram
            .write_u64(slot_base + 4, 4, d.opcode as u32 as u64)?;
        self.dram.write_u64(slot_base + 8, 4, d.status as u64)?;
        self.dram
            .write_u64(slot_base + 12, 4, d.payload.len() as u64)?;
        self.dram.write_u64(slot_base + 16, 8, d.sequence)?;
        self.dram.write(slot_base + 32, &d.payload)?;
        Ok(())
    }

    fn read_descriptor(&mut self, slot_base: u64) -> Result<IoDescriptor> {
        let port = self.dram.read_u64(slot_base, 4)? as u32;
        let opcode_raw = self.dram.read_u64(slot_base + 4, 4)? as u32;
        let status = self.dram.read_u64(slot_base + 8, 4)? as u32;
        let len = self.dram.read_u64(slot_base + 12, 4)? as usize;
        let sequence = self.dram.read_u64(slot_base + 16, 8)?;
        let opcode = IoOpcode::from_u32(opcode_raw).ok_or_else(|| {
            GuillotineError::port(format!("malformed descriptor opcode {opcode_raw}"))
        })?;
        let len = len.min(MAX_PAYLOAD);
        let payload = self.dram.read(slot_base + 32, len)?;
        Ok(IoDescriptor {
            port: PortId::new(port),
            opcode,
            status,
            sequence,
            payload,
        })
    }

    fn push(&mut self, header: u64, slots: u64, d: &IoDescriptor) -> Result<()> {
        let (head, tail) = self.read_ring_header(header)?;
        if tail - head >= SLOT_COUNT {
            return Err(GuillotineError::port("descriptor ring full"));
        }
        let slot = tail % SLOT_COUNT;
        self.write_descriptor(slots + slot * SLOT_SIZE, d)?;
        self.write_ring_header(header, head, tail + 1)
    }

    fn pop(&mut self, header: u64, slots: u64) -> Result<Option<IoDescriptor>> {
        let (head, tail) = self.read_ring_header(header)?;
        if head == tail {
            return Ok(None);
        }
        let slot = head % SLOT_COUNT;
        let d = self.read_descriptor(slots + slot * SLOT_SIZE)?;
        self.write_ring_header(header, head + 1, tail)?;
        Ok(Some(d))
    }

    /// Model side: enqueues an IO request descriptor.
    pub fn push_request(&mut self, d: &IoDescriptor) -> Result<()> {
        self.push(REQ_HEADER, REQ_SLOTS, d)
    }

    /// Hypervisor side: dequeues the next IO request, if any.
    pub fn pop_request(&mut self) -> Result<Option<IoDescriptor>> {
        self.pop(REQ_HEADER, REQ_SLOTS)
    }

    /// Hypervisor side: enqueues a response descriptor.
    pub fn push_response(&mut self, d: &IoDescriptor) -> Result<()> {
        self.push(RESP_HEADER, RESP_SLOTS, d)
    }

    /// Model side: dequeues the next response, if any.
    pub fn pop_response(&mut self) -> Result<Option<IoDescriptor>> {
        self.pop(RESP_HEADER, RESP_SLOTS)
    }

    /// Number of requests waiting for the hypervisor.
    pub fn pending_requests(&mut self) -> Result<u64> {
        let (head, tail) = self.read_ring_header(REQ_HEADER)?;
        Ok(tail - head)
    }

    /// Number of responses waiting for the model.
    pub fn pending_responses(&mut self) -> Result<u64> {
        let (head, tail) = self.read_ring_header(RESP_HEADER)?;
        Ok(tail - head)
    }

    /// Wipes the region (used when the model is destroyed or the machine is
    /// reset into a more restrictive isolation level).
    pub fn wipe(&mut self) {
        self.dram.wipe();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(seq: u64, payload: &[u8]) -> IoDescriptor {
        IoDescriptor::request(PortId::new(3), IoOpcode::Send, seq, payload.to_vec())
    }

    #[test]
    fn request_round_trip() {
        let mut io = SharedIoDram::new();
        io.push_request(&desc(1, b"hello")).unwrap();
        assert_eq!(io.pending_requests().unwrap(), 1);
        let d = io.pop_request().unwrap().unwrap();
        assert_eq!(d.sequence, 1);
        assert_eq!(d.payload, b"hello");
        assert_eq!(d.port, PortId::new(3));
        assert_eq!(d.opcode, IoOpcode::Send);
        assert!(io.pop_request().unwrap().is_none());
    }

    #[test]
    fn response_round_trip_preserves_sequence() {
        let mut io = SharedIoDram::new();
        let req = desc(42, b"req");
        io.push_request(&req).unwrap();
        let got = io.pop_request().unwrap().unwrap();
        let resp = IoDescriptor::response_to(&got, 0, b"result".to_vec());
        io.push_response(&resp).unwrap();
        let got_resp = io.pop_response().unwrap().unwrap();
        assert_eq!(got_resp.sequence, 42);
        assert_eq!(got_resp.payload, b"result");
    }

    #[test]
    fn ring_is_fifo_and_bounded() {
        let mut io = SharedIoDram::new();
        for i in 0..SLOT_COUNT {
            io.push_request(&desc(i, &[i as u8])).unwrap();
        }
        assert!(io.push_request(&desc(999, b"x")).is_err());
        for i in 0..SLOT_COUNT {
            let d = io.pop_request().unwrap().unwrap();
            assert_eq!(d.sequence, i);
        }
    }

    #[test]
    fn ring_wraps_around() {
        let mut io = SharedIoDram::new();
        for round in 0..3 {
            for i in 0..SLOT_COUNT {
                io.push_request(&desc(round * 1000 + i, b"p")).unwrap();
            }
            for i in 0..SLOT_COUNT {
                assert_eq!(
                    io.pop_request().unwrap().unwrap().sequence,
                    round * 1000 + i
                );
            }
        }
    }

    #[test]
    fn oversized_payload_is_rejected() {
        let mut io = SharedIoDram::new();
        let big = vec![0u8; MAX_PAYLOAD + 1];
        assert!(io
            .push_request(&IoDescriptor::request(
                PortId::new(0),
                IoOpcode::Send,
                0,
                big
            ))
            .is_err());
    }

    #[test]
    fn wipe_clears_rings() {
        let mut io = SharedIoDram::new();
        io.push_request(&desc(1, b"a")).unwrap();
        io.wipe();
        assert_eq!(io.pending_requests().unwrap(), 0);
        assert!(io.pop_request().unwrap().is_none());
    }

    #[test]
    fn malformed_opcode_is_rejected_on_pop() {
        let mut io = SharedIoDram::new();
        io.push_request(&desc(1, b"a")).unwrap();
        // Corrupt the opcode field of slot 0 directly, as a malicious model
        // scribbling on the shared region would.
        io.raw_write(REQ_SLOTS + 4, 4, 0xFFFF).unwrap();
        assert!(io.pop_request().is_err());
    }
}
