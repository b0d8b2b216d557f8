#include "trace/trace_binary.h"

#include "trace/trace_io.h"
#include "util/crc32c.h"
#include "util/format.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

namespace hsr::trace {

namespace {

using net::DropCategory;

constexpr char kFlowFrame = 'F';
constexpr char kQuarantineFrame = 'Q';
// One frame is one flow (or one quarantine record); anything claiming to be
// larger than this is corruption, not data, and must not drive a giant
// allocation in the reader.
constexpr std::uint64_t kMaxFramePayload = std::uint64_t{1} << 36;  // 64 GiB
// The reader fills a frame's payload buffer in steps of at most this many
// bytes, so what a frame header declares never sizes an allocation alone.
constexpr std::uint64_t kPayloadReadStep = std::uint64_t{1} << 20;  // 1 MiB

// --- little-endian / varint primitives ---------------------------------------

void put_u8(std::string& out, std::uint8_t v) { out.push_back(static_cast<char>(v)); }

void put_u64le(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void put_u32le(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

// LEB128: 7 value bits per byte, high bit = continuation.
void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

// ZigZag folds signed deltas into small unsigned varints. Encoding operates
// on the two's-complement bit pattern, so u64 wrap-around deltas (sequence
// counters, timestamps) round-trip exactly.
std::uint64_t zigzag(std::uint64_t bits) {
  const auto s = static_cast<std::int64_t>(bits);
  return (static_cast<std::uint64_t>(s) << 1) ^ static_cast<std::uint64_t>(s >> 63);
}

std::uint64_t unzigzag(std::uint64_t v) {
  return (v >> 1) ^ (~(v & 1) + 1);
}

void put_delta(std::string& out, std::uint64_t cur, std::uint64_t& prev) {
  put_varint(out, zigzag(cur - prev));
  prev = cur;
}

// Bounds-checked decode cursor over one frame payload.
struct Cursor {
  const unsigned char* p;
  const unsigned char* end;
  bool fail = false;

  explicit Cursor(const std::string& buf)
      : p(reinterpret_cast<const unsigned char*>(buf.data())),
        end(reinterpret_cast<const unsigned char*>(buf.data()) + buf.size()) {}

  std::uint8_t get_u8() {
    if (p >= end) {
      fail = true;
      return 0;
    }
    return *p++;
  }

  std::uint64_t get_varint() {
    std::uint64_t v = 0;
    int shift = 0;
    while (p < end && shift < 64) {
      const std::uint8_t byte = *p++;
      v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return v;
      shift += 7;
    }
    fail = true;
    return 0;
  }

  std::uint64_t get_delta(std::uint64_t& prev) {
    prev += unzigzag(get_varint());
    return prev;
  }

  bool get_string(std::string& out) {
    const std::uint64_t n = get_varint();
    if (fail || n > static_cast<std::uint64_t>(end - p)) {
      fail = true;
      return false;
    }
    out.assign(reinterpret_cast<const char*>(p), static_cast<std::size_t>(n));
    p += n;
    return true;
  }

  std::uint64_t remaining() const { return static_cast<std::uint64_t>(end - p); }

  bool done() const { return !fail && p == end; }
};

// --- flow frame payload -------------------------------------------------------

// Run-length encodes a column as (count, value) varint pairs. The
// near-constant columns (packet sizes, retx counts, fate tags) collapse to a
// handful of bytes per flow this way, where per-entry coding would cost a
// byte per transmission.
template <typename Get>
void put_rle(std::string& out, std::size_t n, Get get) {
  std::size_t i = 0;
  while (i < n) {
    const std::uint64_t value = get(i);
    std::size_t run = 1;
    while (i + run < n && get(i + run) == value) ++run;
    put_varint(out, run);
    put_varint(out, value);
    i += run;
  }
}

void encode_direction(const DirectionCapture& cap, std::string& out) {
  const auto& txs = cap.transmissions();
  put_varint(out, txs.size());

  std::uint64_t prev = 0;
  for (const auto& tx : txs) put_delta(out, tx.packet.id, prev);
  prev = 0;
  for (const auto& tx : txs) put_delta(out, tx.packet.seq, prev);
  prev = 0;
  for (const auto& tx : txs) put_delta(out, tx.packet.ack_next, prev);
  put_rle(out, txs.size(), [&](std::size_t i) -> std::uint64_t {
    return txs[i].packet.size_bytes;
  });
  put_rle(out, txs.size(), [&](std::size_t i) -> std::uint64_t {
    return txs[i].packet.retx_count;
  });
  prev = 0;
  for (const auto& tx : txs) {
    put_delta(out, static_cast<std::uint64_t>(tx.sent.ns()), prev);
  }
  // Fate tags: 0 = still in flight at capture end, 1 = delivered, 2 = lost.
  put_rle(out, txs.size(), [&](std::size_t i) -> std::uint64_t {
    return txs[i].arrived ? 1 : (txs[i].drop_cause ? 2 : 0);
  });
  // Delivered column: one-way transit, delta-coded against the previous
  // delivered transit (transits hover around the path delay, so deltas
  // stay small even when absolute transit would not).
  prev = 0;
  for (const auto& tx : txs) {
    if (tx.arrived) {
      put_delta(out, static_cast<std::uint64_t>((*tx.arrived - tx.sent).ns()), prev);
    }
  }
  // Dropped column: per drop the category, a reserved 0 byte (it held the
  // depth of the retired composite-component path) and the directive plus
  // one.
  for (const auto& tx : txs) {
    if (tx.arrived || !tx.drop_cause) continue;
    put_u8(out, static_cast<std::uint8_t>(tx.drop_cause->category));
    put_u8(out, 0);
    put_varint(out, static_cast<std::uint64_t>(tx.drop_cause->directive) + 1);
  }
}

void encode_flow_payload(const FlowCapture& capture, std::string& out) {
  put_varint(out, capture.flow);
  encode_direction(capture.data, out);
  encode_direction(capture.acks, out);

  put_varint(out, capture.faults.size());
  std::uint64_t prev_when = 0;
  for (const auto& f : capture.faults) {
    put_u8(out, static_cast<std::uint8_t>(f.direction));
    put_u8(out, f.kind == net::PacketKind::kData ? 'D' : 'A');
    put_u8(out, static_cast<std::uint8_t>(f.action));
    put_delta(out, static_cast<std::uint64_t>(f.when.ns()), prev_when);
    put_varint(out, f.packet_id);
    put_varint(out, f.seq);
    put_varint(out, f.directive);
    put_varint(out, static_cast<std::uint64_t>(f.delay.ns()));
    put_varint(out, f.label.size());
    out.append(f.label);
  }
}

util::Status frame_error(std::uint64_t frame, const std::string& why) {
  return util::Status::invalid_argument("binary trace frame " + std::to_string(frame) +
                                        ": " + why);
}

// A read that failed (badbit: the device, not the data) is an error, never
// a clean end or a torn tail.
util::Status read_failed() { return util::Status::internal("read failed"); }

// Inverse of put_rle: `set` gives each record its run's value. Rejects zero
// or overshooting run lengths so corrupt input cannot loop or scribble.
template <typename Set>
bool get_rle(Cursor& c, std::vector<Transmission>& txs, Set set) {
  std::size_t i = 0;
  while (i < txs.size()) {
    const std::uint64_t run = c.get_varint();
    const std::uint64_t value = c.get_varint();
    if (c.fail || run == 0 || run > txs.size() - i) return false;
    for (std::uint64_t k = 0; k < run; ++k) set(txs[i++], value);
  }
  return true;
}

// Decodes one direction's columns straight into its records. The transit and
// drop-cause columns follow the fate column's order, so no id join is needed.
util::Status decode_direction(Cursor& c, std::uint64_t frame, DirectionCapture& cap) {
  // Every transmission costs at least one byte in each of the id, seq, ack
  // and sent delta columns, so a count above a quarter of the bytes left
  // is corruption; rejecting it here keeps it from sizing the records.
  const std::uint64_t n = c.get_varint();
  if (c.fail || n > c.remaining() / 4) {
    return frame_error(frame, "bad transmission count");
  }
  std::vector<Transmission> txs(static_cast<std::size_t>(n));

  std::uint64_t prev = 0;
  for (auto& tx : txs) tx.packet.id = c.get_delta(prev);
  prev = 0;
  for (auto& tx : txs) tx.packet.seq = c.get_delta(prev);
  prev = 0;
  for (auto& tx : txs) tx.packet.ack_next = c.get_delta(prev);
  bool bad_size = false;
  if (!get_rle(c, txs, [&bad_size](Transmission& tx, std::uint64_t v) {
        bad_size |= v > std::numeric_limits<std::uint32_t>::max();
        tx.packet.size_bytes = static_cast<std::uint32_t>(v);
      })) {
    return frame_error(frame, "bad size run");
  }
  if (!get_rle(c, txs, [](Transmission& tx, std::uint64_t v) {
        tx.packet.retx_count = static_cast<std::uint32_t>(v);
      })) {
    return frame_error(frame, "bad retx run");
  }
  prev = 0;
  for (auto& tx : txs) {
    tx.sent = TimePoint::from_ns(static_cast<std::int64_t>(c.get_delta(prev)));
  }
  bool bad_fate = false;
  if (!get_rle(c, txs, [&bad_fate](Transmission& tx, std::uint64_t v) {
        if (v == 1) tx.arrived.emplace();
        if (v == 2) tx.drop_cause.emplace();
        bad_fate |= v > 2;
      })) {
    return frame_error(frame, "bad fate run");
  }
  if (c.fail) return frame_error(frame, "truncated transmission columns");
  if (bad_size) return frame_error(frame, "implausible packet size");
  if (bad_fate) return frame_error(frame, "bad fate tag");

  prev = 0;
  for (auto& tx : txs) {
    if (!tx.arrived) continue;
    // Summed as u64 so that a corrupt transit wraps instead of overflowing.
    const std::uint64_t transit = c.get_delta(prev);
    const auto arrived = static_cast<std::uint64_t>(tx.sent.ns()) + transit;
    tx.arrived = TimePoint::from_ns(static_cast<std::int64_t>(arrived));
  }
  for (auto& tx : txs) {
    if (!tx.drop_cause) continue;
    net::DropCause& cause = *tx.drop_cause;
    const std::uint8_t category = c.get_u8();
    if (category >= net::kDropCategoryCount) {
      return frame_error(frame, "bad drop category");
    }
    cause.category = static_cast<DropCategory>(category);
    if (c.get_u8() != 0) return frame_error(frame, "bad component depth");  // reserved
    // Directives are stored plus one (0 = none), so the largest is 2^31.
    const std::uint64_t directive = c.get_varint();
    if (directive > std::uint64_t{1} << 31) return frame_error(frame, "bad directive");
    cause.directive = static_cast<std::int32_t>(directive - 1);
    if (c.fail) return frame_error(frame, "truncated drop causes");
  }
  if (c.fail) return frame_error(frame, "truncated direction section");
  cap = DirectionCapture(std::move(txs));
  return util::Status::ok();
}

util::Status decode_flow_payload(const std::string& payload, std::uint64_t frame,
                                 FlowCapture& cap) {
  Cursor c(payload);
  const std::uint64_t flow = c.get_varint();
  if (c.fail || flow > std::numeric_limits<net::FlowId>::max()) {
    return frame_error(frame, "bad flow id");
  }
  cap.flow = static_cast<net::FlowId>(flow);

  util::Status status = decode_direction(c, frame, cap.data);
  if (!status.is_ok()) return status;
  status = decode_direction(c, frame, cap.acks);
  if (!status.is_ok()) return status;

  // A fault record is at least nine bytes: three tags and six varints
  // (the label's length included).
  const std::uint64_t fault_count = c.get_varint();
  if (c.fail || fault_count > c.remaining() / 9) {
    return frame_error(frame, "bad fault count");
  }
  cap.faults.reserve(static_cast<std::size_t>(fault_count));
  std::uint64_t prev_when = 0;
  for (std::uint64_t i = 0; i < fault_count; ++i) {
    FaultRecord rec;
    rec.direction = static_cast<char>(c.get_u8());
    const std::uint8_t kind = c.get_u8();
    const std::uint8_t action = c.get_u8();
    if (c.fail || (rec.direction != 'D' && rec.direction != 'A') ||
        (kind != 'D' && kind != 'A') ||
        (action != 'X' && action != 'L' && action != '2')) {
      return frame_error(frame, "bad fault record tags");
    }
    rec.kind = kind == 'D' ? net::PacketKind::kData : net::PacketKind::kAck;
    rec.action = static_cast<char>(action);
    rec.when = TimePoint::from_ns(static_cast<std::int64_t>(c.get_delta(prev_when)));
    rec.packet_id = c.get_varint();
    rec.seq = c.get_varint();
    rec.directive = static_cast<std::uint32_t>(c.get_varint());
    rec.delay = util::Duration::nanos(static_cast<std::int64_t>(c.get_varint()));
    if (!c.get_string(rec.label)) return frame_error(frame, "truncated fault label");
    cap.faults.push_back(std::move(rec));
  }
  if (!c.done()) return frame_error(frame, "trailing bytes after flow payload");
  return util::Status::ok();
}

// --- quarantine frame payload -------------------------------------------------

void encode_quarantine_payload(const QuarantineRecord& rec, std::string& out) {
  put_varint(out, rec.flow_index);
  put_varint(out, static_cast<std::uint64_t>(rec.status_code));
  const auto put_string = [&out](const std::string& s) {
    put_varint(out, s.size());
    out.append(s);
  };
  put_string(rec.provider);
  put_string(rec.campaign);
  put_string(rec.message);
  put_string(rec.downlink_plan);
  put_string(rec.uplink_plan);
}

util::Status decode_quarantine_payload(const std::string& payload, std::uint64_t frame,
                                       QuarantineRecord& rec) {
  Cursor c(payload);
  rec.flow_index = c.get_varint();
  rec.status_code = static_cast<std::int32_t>(c.get_varint());
  if (!c.get_string(rec.provider) || !c.get_string(rec.campaign) ||
      !c.get_string(rec.message) || !c.get_string(rec.downlink_plan) ||
      !c.get_string(rec.uplink_plan)) {
    return frame_error(frame, "truncated quarantine record");
  }
  if (!c.done()) return frame_error(frame, "trailing bytes after quarantine record");
  return util::Status::ok();
}

void append_frame(char type, std::string_view payload, std::uint64_t seq,
                  std::string& out) {
  put_u8(out, static_cast<std::uint8_t>(type));
  // [type][crc32c][seq][size][payload]; the CRC covers everything after its
  // own field, so a corrupted length cannot silently misframe the rest
  // of the file.
  const std::size_t crc_pos = out.size();
  put_u32le(out, 0);  // patched below
  const std::size_t seq_pos = out.size();
  put_u64le(out, seq);
  put_u64le(out, payload.size());
  out.append(payload);
  std::uint32_t crc = util::crc32c(0, &out[crc_pos - 1], 1);  // type byte
  crc = util::crc32c(crc, out.data() + seq_pos, 16);          // seq + size
  crc = util::crc32c(crc, payload.data(), payload.size());
  for (int i = 0; i < 4; ++i) {
    out[crc_pos + static_cast<std::size_t>(i)] =
        static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
}

}  // namespace

void write_binary_trace_header(std::ostream& os, std::uint64_t flow_count) {
  std::string header;
  header.append(kBinaryTraceMagic, kBinaryTraceMagicSize);
  put_u64le(header, flow_count);
  os.write(header.data(), static_cast<std::streamsize>(header.size()));
}

void encode_flow_frame(const FlowCapture& capture, std::uint64_t seq, std::string& out) {
  out.clear();
  std::string payload;
  encode_flow_payload(capture, payload);
  out.reserve(payload.size() + 21);
  append_frame(kFlowFrame, payload, seq, out);
}

void encode_quarantine_frame(const QuarantineRecord& record, std::uint64_t seq,
                             std::string& out) {
  out.clear();
  std::string payload;
  encode_quarantine_payload(record, payload);
  out.reserve(payload.size() + 21);
  append_frame(kQuarantineFrame, payload, seq, out);
}

void encode_raw_frame(char type, std::string_view payload, std::uint64_t seq,
                      std::string& out) {
  out.clear();
  out.reserve(payload.size() + 21);
  append_frame(type, payload, seq, out);
}

util::Status decode_quarantine_frame_payload(const std::string& payload,
                                             QuarantineRecord* record) {
  return decode_quarantine_payload(payload, 0, *record);
}

void write_flow_frame(std::ostream& os, const FlowCapture& capture, std::uint64_t seq) {
  std::string frame;
  encode_flow_frame(capture, seq, frame);
  os.write(frame.data(), static_cast<std::streamsize>(frame.size()));
}

util::Status BinaryTraceReader::open() {
  char magic[kBinaryTraceMagicSize] = {};
  is_.read(magic, kBinaryTraceMagicSize);
  if (is_.bad()) return read_failed();
  if (is_.gcount() != static_cast<std::streamsize>(kBinaryTraceMagicSize) ||
      std::memcmp(magic, kBinaryTraceMagic, kBinaryTraceMagicSize) != 0) {
    return util::Status::invalid_argument("not an hsrtrace stream (bad magic)");
  }
  unsigned char count[8] = {};
  is_.read(reinterpret_cast<char*>(count), 8);
  if (is_.bad()) return read_failed();
  if (is_.gcount() != 8) {
    return util::Status::invalid_argument("hsrtrace header truncated");
  }
  declared_flow_count_ = 0;
  for (int i = 0; i < 8; ++i) {
    declared_flow_count_ |= static_cast<std::uint64_t>(count[i]) << (8 * i);
  }
  return util::Status::ok();
}

util::StatusOr<BinaryTraceReader::Frame> BinaryTraceReader::read_frame() {
  if (torn_) return Frame::kTorn;
  char type = 0;
  if (!is_.get(type)) {
    if (is_.bad()) return read_failed();
    return Frame::kEnd;
  }

  // [crc4][seq8][size8]. A short header read is a torn tail, exactly like a
  // short payload read.
  unsigned char head[20] = {};
  is_.read(reinterpret_cast<char*>(head), static_cast<std::streamsize>(sizeof head));
  if (is_.gcount() != static_cast<std::streamsize>(sizeof head)) {
    if (is_.bad()) return read_failed();
    torn_ = true;
    return Frame::kTorn;
  }
  std::uint32_t stored_crc = 0;
  std::uint64_t stored_seq = 0;
  std::uint64_t payload_size = 0;
  const unsigned char* p = head;
  for (int i = 0; i < 4; ++i) stored_crc |= static_cast<std::uint32_t>(*p++) << (8 * i);
  for (int i = 0; i < 8; ++i) stored_seq |= static_cast<std::uint64_t>(*p++) << (8 * i);
  for (int i = 0; i < 8; ++i) payload_size |= static_cast<std::uint64_t>(*p++) << (8 * i);

  const std::uint64_t frame_index = frames_read_++;
  if (payload_size > kMaxFramePayload) {
    return frame_error(frame_index, "implausible frame size (corrupt archive)");
  }
  payload_.clear();
  while (payload_.size() < payload_size) {
    const std::size_t have = payload_.size();
    const std::size_t step = static_cast<std::size_t>(
        std::min<std::uint64_t>(kPayloadReadStep, payload_size - have));
    payload_.resize(have + step);
    is_.read(payload_.data() + have, static_cast<std::streamsize>(step));
    if (is_.gcount() != static_cast<std::streamsize>(step)) {
      if (is_.bad()) return read_failed();
      // The writer died (or the copy was cut) mid-frame: drop the torn
      // tail, keep everything before it — same contract as the text
      // reader's torn-final-line tolerance.
      torn_ = true;
      return Frame::kTorn;
    }
  }

  std::uint32_t crc = util::crc32c(0, &type, 1);
  crc = util::crc32c(crc, head + 4, 16);  // seq + size as read off the wire
  crc = util::crc32c(crc, payload_.data(), payload_.size());
  if (crc != stored_crc) {
    return frame_error(frame_index,
                       "crc32c mismatch (stored 0x" + util::format_hex(stored_crc, 8) +
                           ", computed 0x" + util::format_hex(crc, 8) + ")");
  }
  if (stored_seq != frame_index) {
    // A valid checksum with the wrong ordinal means frames were spliced,
    // dropped or reordered — corruption the CRC alone cannot see.
    return frame_error(frame_index, "sequence mismatch (frame carries seq " +
                                        std::to_string(stored_seq) + ")");
  }
  type_ = type;
  return Frame::kOther;  // a complete, verified frame is in type_/payload_
}

util::StatusOr<BinaryTraceReader::Frame> BinaryTraceReader::next(
    FlowCapture* flow, QuarantineRecord* quarantine) {
  for (;;) {
    auto frame = read_frame();
    if (!frame.is_ok()) return frame.status();
    if (frame.value() != Frame::kOther) return frame.value();
    const std::uint64_t frame_index = frames_read_ - 1;

    if (type_ == kFlowFrame) {
      if (flow == nullptr) return frame_error(frame_index, "unexpected flow frame");
      *flow = FlowCapture{};
      util::Status status = decode_flow_payload(payload_, frame_index, *flow);
      if (!status.is_ok()) return status;
      ++flows_read_;
      return Frame::kFlow;
    }
    if (type_ == kQuarantineFrame) {
      if (quarantine == nullptr) {
        return frame_error(frame_index, "unexpected quarantine frame");
      }
      *quarantine = QuarantineRecord{};
      util::Status status =
          decode_quarantine_payload(payload_, frame_index, *quarantine);
      if (!status.is_ok()) return status;
      return Frame::kQuarantine;
    }
    // Unknown frame type: skip (forward compatibility with future records).
  }
}

util::StatusOr<BinaryTraceReader::Frame> BinaryTraceReader::next_raw(
    char* type, std::string* payload) {
  auto frame = read_frame();
  if (!frame.is_ok()) return frame.status();
  if (frame.value() != Frame::kOther) return frame.value();
  *type = type_;
  payload->assign(payload_);
  if (type_ == kFlowFrame) {
    ++flows_read_;
    return Frame::kFlow;
  }
  if (type_ == kQuarantineFrame) return Frame::kQuarantine;
  return Frame::kOther;
}

util::StatusOr<BinaryCorpus> read_binary_corpus(std::istream& is) {
  BinaryTraceReader reader(is);
  util::Status status = reader.open();
  if (!status.is_ok()) return status;

  BinaryCorpus corpus;
  corpus.declared_flow_count = reader.declared_flow_count();
  FlowCapture flow;
  QuarantineRecord quarantine;
  for (;;) {
    auto frame = reader.next(&flow, &quarantine);
    if (!frame.is_ok()) return frame.status();
    switch (frame.value()) {
      case BinaryTraceReader::Frame::kFlow:
        corpus.flows.push_back(std::move(flow));
        break;
      case BinaryTraceReader::Frame::kQuarantine:
        corpus.quarantined.push_back(std::move(quarantine));
        break;
      case BinaryTraceReader::Frame::kOther:  // next() skips unknown types
        break;
      case BinaryTraceReader::Frame::kTorn:
        corpus.torn_tail = true;
        return corpus;
      case BinaryTraceReader::Frame::kEnd:
        return corpus;
    }
  }
}

void write_capture_archive(std::ostream& os, const std::vector<FlowCapture>& captures) {
  write_binary_trace_header(os, captures.size());
  for (std::size_t i = 0; i < captures.size(); ++i) {
    write_flow_frame(os, captures[i], i);
  }
}

util::Status save_capture_archive(util::Fs& fs, const std::string& path,
                                  const std::vector<FlowCapture>& captures) {
  std::ostringstream content;
  write_capture_archive(content, captures);
  return util::write_file_atomic(fs, path, content.str());
}

util::Status save_capture_archive(const std::string& path,
                                  const std::vector<FlowCapture>& captures) {
  return save_capture_archive(util::Fs::real(), path, captures);
}

util::StatusOr<TraceVerifyReport> verify_trace_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return util::Status::not_found("cannot open: " + path);
  if (!sniff_binary_trace(f)) {
    // Text archives have no frames to checksum; a full parse is the
    // strongest check available.
    auto capture = load_flow_capture(path);
    if (!capture.is_ok()) return capture.status();
    TraceVerifyReport report;
    report.text = true;
    report.flows = 1;
    report.intact = true;
    return report;
  }

  BinaryTraceReader reader(f);
  util::Status status = reader.open();
  if (!status.is_ok()) return status;

  TraceVerifyReport report;
  report.declared_flow_count = reader.declared_flow_count();
  char type = 0;
  std::string payload;
  for (;;) {
    auto frame = reader.next_raw(&type, &payload);
    if (!frame.is_ok()) return frame.status();
    bool done = false;
    switch (frame.value()) {
      case BinaryTraceReader::Frame::kFlow: {
        // Raw integrity passed; decode the columns too, so a corrupt
        // payload that happens to carry a stale CRC cannot hide.
        FlowCapture flow;
        status = decode_flow_payload(payload, reader.frames_read() - 1, flow);
        if (!status.is_ok()) return status;
        ++report.flows;
        break;
      }
      case BinaryTraceReader::Frame::kQuarantine: {
        QuarantineRecord rec;
        status = decode_quarantine_payload(payload, reader.frames_read() - 1, rec);
        if (!status.is_ok()) return status;
        ++report.quarantines;
        break;
      }
      case BinaryTraceReader::Frame::kOther:
        ++report.other_frames;
        break;
      case BinaryTraceReader::Frame::kTorn:
        report.torn_tail = true;
        done = true;
        break;
      case BinaryTraceReader::Frame::kEnd:
        done = true;
        break;
    }
    if (done) break;
  }
  report.frames = report.flows + report.quarantines + report.other_frames;
  report.intact = !report.torn_tail &&
                  (report.declared_flow_count == kUnknownFlowCount ||
                   report.flows == report.declared_flow_count);
  return report;
}

bool sniff_binary_trace(std::istream& is) {
  char magic[kBinaryTraceMagicSize] = {};
  is.read(magic, kBinaryTraceMagicSize);
  const bool is_binary =
      is.gcount() == static_cast<std::streamsize>(kBinaryTraceMagicSize) &&
      std::memcmp(magic, kBinaryTraceMagic, kBinaryTraceMagicSize) == 0;
  is.clear();
  is.seekg(0);
  return is_binary;
}

util::StatusOr<FlowCapture> load_flow_capture_any(const std::string& path,
                                                  std::uint64_t nth) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return util::Status::not_found("cannot open: " + path);
  if (!sniff_binary_trace(f)) {
    auto capture = load_flow_capture(path);
    if (capture.is_ok() && nth > 0) {
      return util::Status::out_of_range(
          path + ": text archives hold a single flow (requested flow " +
          std::to_string(nth) + ")");
    }
    return capture;
  }

  BinaryTraceReader reader(f);
  util::Status status = reader.open();
  if (!status.is_ok()) return status;
  FlowCapture flow;
  QuarantineRecord quarantine;
  for (;;) {
    auto frame = reader.next(&flow, &quarantine);
    if (!frame.is_ok()) return frame.status();
    if (frame.value() == BinaryTraceReader::Frame::kFlow) {
      if (reader.flows_read() == nth + 1) return flow;
      continue;
    }
    if (frame.value() == BinaryTraceReader::Frame::kQuarantine) continue;
    return util::Status::out_of_range(
        path + ": has only " + std::to_string(reader.flows_read()) +
        " flow(s), requested flow " + std::to_string(nth));
  }
}

}  // namespace hsr::trace
