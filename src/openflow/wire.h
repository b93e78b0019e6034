// OpenFlow 1.3 binary wire codec (subset).
//
// The proxy in the paper interposes on the actual OpenFlow TCP connections
// between switches and the controller, parsing messages with OpenFlowJ and
// rewriting table references. To exercise the same mechanism, switches,
// controller and proxy here exchange real OF 1.3 byte streams: 8-byte
// ofp_header framing, OXM TLV matches, instruction/action TLVs. The codec
// covers the message subset in messages.h and rejects the rest cleanly.
//
// Two paths through the codec:
//
//  * Slow path: decode() a frame into an OfMessage, mutate it, encode() it
//    back. Fully general, allocation-heavy.
//  * Fast path (DESIGN.md §5): classify() looks at a FrameView — a
//    non-owning span over one frame in the decoder's buffer — and reports
//    whether the proxy can forward the bytes untouched (kPassThrough),
//    rewrite every table_id in place at fixed/TLV-walked offsets (kPatch),
//    hand a table-0 Packet-in to the PCP straight from its bytes
//    (kPacketIn: packet_in_fields() reads it, an allowed one is forwarded
//    verbatim), or must fall back to full decode (kDecode). classify() only
//    admits frames in *canonical* form — the exact byte layout encode()
//    produces — because the slow path is decode→re-encode and therefore
//    canonicalizes; admitting anything else would break byte-for-byte
//    equivalence between the two paths. The slow path stays on as the
//    differential oracle (tests/wire_fastpath_test.cc).
//
// The PCP's decision FlowMod has a writer of its own: encode_exact_rule_into
// writes the one FlowMod shape compile_exact_rule produces in one pass at
// its fixed layout, byte-identical to encode_into. Every other FlowMod
// takes encode_into.
#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "openflow/messages.h"

namespace dfi {

// Non-owning view over one length-prefixed frame (ofp_header + body). Valid
// only while the underlying storage is — for views produced by
// FrameDecoder::next_frame, until the next feed().
class FrameView {
 public:
  FrameView() = default;
  FrameView(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Header accessors; only meaningful when size() >= 8.
  std::uint8_t version() const { return data_[0]; }
  OfType type() const { return static_cast<OfType>(data_[1]); }
  std::uint8_t raw_type() const { return data_[1]; }
  std::uint16_t length() const {
    return static_cast<std::uint16_t>((data_[2] << 8) | data_[3]);
  }
  std::uint32_t xid() const {
    return (static_cast<std::uint32_t>(data_[4]) << 24) |
           (static_cast<std::uint32_t>(data_[5]) << 16) |
           (static_cast<std::uint32_t>(data_[6]) << 8) | data_[7];
  }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

// Which way a frame is crossing the proxy. Table shifting is asymmetric:
// +1 toward the switch, -1 toward the controller.
enum class ProxyDirection : std::uint8_t {
  kSwitchToController,
  kControllerToSwitch,
};

enum class FrameClass : std::uint8_t {
  kPassThrough,  // forward the bytes verbatim
  kPatch,        // rewrite table ids in place via patch_table_refs()
  kDecode,       // full decode required (handshake, errors, expansion,
                 // and anything non-canonical)
  kPacketIn,     // table-0 Packet-in (switch -> controller): the PCP
                 // decides from packet_in_fields(); forwarded verbatim
                 // when allowed
};

// Fixed byte offsets of the primary table_id in patchable messages
// (ofp_header included). Used by patch_table_refs and the proxy's
// FLOW_REMOVED Table-0 drop check.
inline constexpr std::size_t kPacketInTableOffset = 15;
inline constexpr std::size_t kFlowRemovedTableOffset = 19;
inline constexpr std::size_t kFlowModTableOffset = 24;
inline constexpr std::size_t kMultipartRequestTableOffset = 16;

// Classify one frame for the proxy fast path without decoding it.
// `switch_num_tables` is the table count learned from the handshake (0 if
// unknown); it gates the FLOW_MOD out-of-range check exactly like the slow
// path does. Guarantees: a kPassThrough or kPacketIn frame forwarded
// verbatim, or a kPatch frame run through patch_table_refs(), is
// byte-identical to what decode -> table shift -> encode would have
// produced.
FrameClass classify(const FrameView& view, ProxyDirection direction,
                    std::uint8_t switch_num_tables);

// What the PCP reads from a canonical Packet-in — one classify() admits as
// kPacketIn or kPatch, or one encode() wrote — at its fixed offsets: the
// IN_PORT value and the packet bytes (valid as long as the view is).
struct PacketInFields {
  PortNo in_port{};
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
};
PacketInFields packet_in_fields(const FrameView& view);

// Rewrite every table reference in a frame previously classified kPatch for
// the same direction: the primary table_id at its fixed offset, plus
// goto-table instructions and multipart flow-stats entries at TLV-walked
// offsets. Returns false (leaving partial writes possible) only if the
// frame does not hold up to re-validation — callers then fall back to the
// slow path on the original bytes.
bool patch_table_refs(std::uint8_t* data, std::size_t size, ProxyDirection direction);

// Encode one message to wire bytes (ofp_header + body).
std::vector<std::uint8_t> encode(const OfMessage& message);

// Encode into caller-provided storage (cleared first; capacity reused).
// This is the zero-allocation path when `out` comes from a FrameBufferPool.
void encode_into(const OfMessage& message, std::vector<std::uint8_t>& out);

// True for the one FlowMod shape the PCP's compile_exact_rule produces: an
// exact match on in-port, both MACs and the EtherType, plus the IPv4
// protocol and addresses when one is present, plus both TCP or both UDP
// ports when those are; a goto-table instruction or none.
bool is_exact_rule(const FlowModMsg& mod);

// Write FLOW_MOD `mod` (is_exact_rule) into `out` (cleared first) in one
// pass at its fixed layout. Byte-identical to encode_into(OfMessage{xid,
// mod}), which every other FlowMod takes.
void encode_exact_rule_into(std::uint32_t xid, const FlowModMsg& mod,
                            std::vector<std::uint8_t>& out);

// Decode exactly one message from `bytes` (must contain exactly one frame).
Result<OfMessage> decode(const std::vector<std::uint8_t>& bytes);

// Slow-path fallback for frames the fast path cannot handle.
Result<OfMessage> decode(const FrameView& view);

enum class FrameStatus : std::uint8_t {
  kFrame,    // `view` holds the next complete frame
  kAwait,    // need more bytes
  kCorrupt,  // framing destroyed (length < 8); stream was reset
};

// Writable region of decoder-owned storage, for scatter input (readv).
struct MutableByteSpan {
  std::uint8_t* data = nullptr;
  std::size_t size = 0;
};

// Stream decoder: feed arbitrary byte chunks, pop complete frames. Models
// the TCP byte-stream the proxy actually reads. Consumed bytes are
// reclaimed by compacting the buffer at most once per input (amortized O(1)
// per byte — never the old erase-from-front per drain).
//
// Two input paths share the same storage:
//   feed(chunk)              — contiguous append copy (in-process streams)
//   writable_spans + commit  — scatter input: a readv lands directly in the
//                              decoder's tail capacity, no intermediate copy
class FrameDecoder {
 public:
  void feed(const std::vector<std::uint8_t>& chunk);

  // Scatter input (socket transport). Compacts, grows the tail to at least
  // min_bytes, and returns writable spans for a vectored read: spans[0] is
  // the buffer's spare tail, spans[1] a fixed spill block so one large
  // readv can land more than min_bytes in a single syscall. Always returns
  // 2 spans. commit(n) then adopts the first n bytes written across the
  // spans in order; bytes that overran into the spill block are folded into
  // the main buffer (paid only on overrun — the next writable_spans() grows
  // the tail, so steady state stays single-span and copy-free).
  std::size_t writable_spans(std::size_t min_bytes, MutableByteSpan spans[2]);
  void commit(std::size_t n);

  // Zero-copy: yields a view over the next complete frame in internal
  // storage. The view is valid until the next feed() or commit(). kCorrupt
  // resets the stream (framing is unrecoverable once a length field is < 8).
  FrameStatus next_frame(FrameView& view);

  // Returns decoded messages in arrival order; malformed frames produce an
  // Error result but do not desynchronize the stream (length-prefixed).
  std::vector<Result<OfMessage>> drain();

  std::size_t buffered_bytes() const { return end_pos_ - read_pos_; }

 private:
  void compact_for_input();

  // buffer_.size() is the allocated extent in use; valid bytes live in
  // [read_pos_, end_pos_), and [end_pos_, buffer_.size()) is writable tail.
  std::vector<std::uint8_t> buffer_;
  std::vector<std::uint8_t> spill_;
  std::size_t read_pos_ = 0;
  std::size_t end_pos_ = 0;
  std::size_t last_tail_ = 0;  // spans[0].size at the last writable_spans()
};

}  // namespace dfi
