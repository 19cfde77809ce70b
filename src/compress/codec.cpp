#include "compress/codec.hpp"

#include <algorithm>
#include <array>
#include <queue>

#include "core/crc32.hpp"
#include "core/error.hpp"

namespace mdl::compress {
namespace {

// ---- Alphabet --------------------------------------------------------------
// Literals 0..255 plus five zero-run symbols (the RLE half of the codec).
// A lone zero is literal 0; runs of >= 2 use the shortest-covering run
// symbol, longest runs split greedily.

constexpr std::uint32_t kNumLiterals = 256;
constexpr std::uint32_t kSymZ2 = 256;    // exactly 2 zeros
constexpr std::uint32_t kSymZ3 = 257;    // 3 + 2 extra bits  -> 3..6
constexpr std::uint32_t kSymZ7 = 258;    // 7 + 4 extra bits  -> 7..22
constexpr std::uint32_t kSymZ23 = 259;   // 23 + 8 extra bits -> 23..278
constexpr std::uint32_t kSymZ279 = 260;  // 279 + 14 extra    -> 279..16662
constexpr std::uint32_t kAlphabet = 261;
constexpr std::uint32_t kMaxRun = 279 + (1U << 14) - 1;  // 16662
constexpr std::uint8_t kMaxCodeLen = 15;

struct RunSym {
  std::uint32_t sym;
  std::uint32_t base;
  std::uint32_t extra_bits;
};
constexpr std::array<RunSym, 5> kRunSyms{{{kSymZ2, 2, 0},
                                          {kSymZ3, 3, 2},
                                          {kSymZ7, 7, 4},
                                          {kSymZ23, 23, 8},
                                          {kSymZ279, 279, 14}}};

struct Token {
  std::uint32_t sym;
  std::uint16_t extra_bits;
  std::uint16_t extra_val;
};

void emit_run_tokens(std::size_t run, std::vector<Token>& out,
                     std::array<std::uint64_t, kAlphabet>& freq) {
  while (run > 0) {
    if (run == 1) {
      out.push_back({0, 0, 0});
      ++freq[0];
      return;
    }
    std::size_t take = std::min<std::size_t>(run, kMaxRun);
    // Avoid leaving a remainder of 1 that costs a full literal when we can
    // shorten this token by one instead.
    if (run - take == 1 && take > 2) --take;
    const RunSym* rs = &kRunSyms[0];
    for (const RunSym& cand : kRunSyms)
      if (take >= cand.base) rs = &cand;
    const auto extra =
        static_cast<std::uint16_t>(take - rs->base);
    out.push_back({rs->sym, static_cast<std::uint16_t>(rs->extra_bits), extra});
    ++freq[rs->sym];
    run -= take;
  }
}

// ---- Length-limited Huffman code construction ------------------------------

/// Standard priority-queue Huffman depths, then clamp to kMaxCodeLen and
/// restore the Kraft inequality by deepening the deepest non-max leaves.
std::array<std::uint8_t, kAlphabet> limited_code_lengths(
    const std::array<std::uint64_t, kAlphabet>& freq) {
  struct Node {
    std::uint64_t weight;
    std::int32_t left, right, symbol;
  };
  std::vector<Node> nodes;
  using Entry = std::pair<std::uint64_t, std::int32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (std::uint32_t s = 0; s < kAlphabet; ++s) {
    if (freq[s] == 0) continue;
    nodes.push_back({freq[s], -1, -1, static_cast<std::int32_t>(s)});
    heap.emplace(freq[s], static_cast<std::int32_t>(nodes.size() - 1));
  }
  std::array<std::uint8_t, kAlphabet> lengths{};
  if (nodes.empty()) return lengths;
  if (nodes.size() == 1) {
    lengths[static_cast<std::size_t>(nodes[0].symbol)] = 1;
    return lengths;
  }
  while (heap.size() > 1) {
    const auto [wa, a] = heap.top();
    heap.pop();
    const auto [wb, b] = heap.top();
    heap.pop();
    nodes.push_back({wa + wb, a, b, -1});
    heap.emplace(wa + wb, static_cast<std::int32_t>(nodes.size() - 1));
  }
  struct Frame {
    std::int32_t node;
    std::uint8_t depth;
  };
  std::vector<Frame> stack{{heap.top().second, 0}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    const Node& nd = nodes[static_cast<std::size_t>(f.node)];
    if (nd.symbol >= 0) {
      lengths[static_cast<std::size_t>(nd.symbol)] =
          std::max<std::uint8_t>(f.depth, 1);
    } else {
      stack.push_back({nd.left, static_cast<std::uint8_t>(f.depth + 1)});
      stack.push_back({nd.right, static_cast<std::uint8_t>(f.depth + 1)});
    }
  }

  // Length-limit: clamp, then repair Kraft (sum 2^-len <= 1, in units of
  // 2^-kMaxCodeLen). Deepening the deepest non-max leaf costs the least
  // code space per step and always terminates: each step shrinks K by
  // >= 1 unit, and with <= 261 symbols K at all-max depth is far under
  // budget.
  std::uint64_t kraft = 0;
  for (std::uint32_t s = 0; s < kAlphabet; ++s) {
    if (lengths[s] == 0) continue;
    if (lengths[s] > kMaxCodeLen) lengths[s] = kMaxCodeLen;
    kraft += 1ULL << (kMaxCodeLen - lengths[s]);
  }
  const std::uint64_t budget = 1ULL << kMaxCodeLen;
  while (kraft > budget) {
    std::int32_t best = -1;
    for (std::uint32_t s = 0; s < kAlphabet; ++s)
      if (lengths[s] > 0 && lengths[s] < kMaxCodeLen &&
          (best < 0 || lengths[s] > lengths[static_cast<std::size_t>(best)]))
        best = static_cast<std::int32_t>(s);
    MDL_CHECK(best >= 0, "internal: cannot repair Kraft inequality");
    const auto b = static_cast<std::size_t>(best);
    kraft -= 1ULL << (kMaxCodeLen - lengths[b] - 1);
    ++lengths[b];
  }
  return lengths;
}

/// Canonical codes: symbols sorted by (length, symbol), codes assigned in
/// that order, so the table ships as code lengths alone.
std::array<std::uint32_t, kAlphabet> canonical_codes(
    const std::array<std::uint8_t, kAlphabet>& lengths) {
  std::vector<std::uint32_t> order;
  for (std::uint32_t s = 0; s < kAlphabet; ++s)
    if (lengths[s] > 0) order.push_back(s);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return lengths[a] != lengths[b] ? lengths[a] < lengths[b]
                                              : a < b;
            });
  std::array<std::uint32_t, kAlphabet> codes{};
  std::uint32_t code = 0;
  std::uint8_t prev_len = 0;
  for (const std::uint32_t s : order) {
    code <<= (lengths[s] - prev_len);
    codes[s] = code;
    ++code;
    prev_len = lengths[s];
  }
  return codes;
}

// ---- Bit I/O (MSB-first) ---------------------------------------------------

class BitWriter {
 public:
  explicit BitWriter(std::vector<std::uint8_t>& out) : out_(out) {}
  void put(std::uint32_t bits, std::uint8_t n) {
    acc_ = (acc_ << n) | bits;
    acc_bits_ += n;
    while (acc_bits_ >= 8) {
      out_.push_back(
          static_cast<std::uint8_t>((acc_ >> (acc_bits_ - 8)) & 0xFF));
      acc_bits_ -= 8;
    }
  }
  void flush() {
    if (acc_bits_ > 0)
      out_.push_back(
          static_cast<std::uint8_t>((acc_ << (8 - acc_bits_)) & 0xFF));
    acc_bits_ = 0;
    acc_ = 0;
  }

 private:
  std::vector<std::uint8_t>& out_;
  std::uint64_t acc_ = 0;
  int acc_bits_ = 0;
};

class BitReader {
 public:
  BitReader(const std::uint8_t* data, std::size_t size)
      : data_(data), total_bits_(size * 8) {}
  std::uint32_t get_bit() {
    MDL_CHECK(pos_ < total_bits_, "encoded block bitstream truncated");
    const std::uint8_t byte = data_[pos_ / 8];
    const std::uint32_t bit = (byte >> (7 - pos_ % 8)) & 1;
    ++pos_;
    return bit;
  }
  std::uint32_t get_bits(std::uint8_t n) {
    std::uint32_t v = 0;
    for (std::uint8_t i = 0; i < n; ++i) v = (v << 1) | get_bit();
    return v;
  }
  std::size_t bytes_consumed() const { return (pos_ + 7) / 8; }

 private:
  const std::uint8_t* data_;
  std::size_t total_bits_;
  std::size_t pos_ = 0;
};

// ---- Table serialization ---------------------------------------------------
// [u16 n_lit] + ceil(n_lit / 2) bytes of nibble-packed literal lengths
// (low nibble first) + 3 bytes of nibble-packed run-symbol lengths.

void write_table(const std::array<std::uint8_t, kAlphabet>& lengths,
                 std::vector<std::uint8_t>& out) {
  std::uint32_t n_lit = 0;
  for (std::uint32_t s = 0; s < kNumLiterals; ++s)
    if (lengths[s] > 0) n_lit = s + 1;
  out.push_back(static_cast<std::uint8_t>(n_lit & 0xFF));
  out.push_back(static_cast<std::uint8_t>(n_lit >> 8));
  const auto pack = [&out](const std::uint8_t* lens, std::uint32_t n) {
    for (std::uint32_t i = 0; i < n; i += 2) {
      std::uint8_t byte = static_cast<std::uint8_t>(lens[i] & 0x0F);
      if (i + 1 < n) byte |= static_cast<std::uint8_t>(lens[i + 1] << 4);
      out.push_back(byte);
    }
  };
  pack(lengths.data(), n_lit);
  pack(lengths.data() + kNumLiterals, kAlphabet - kNumLiterals);
}

/// Parses + validates a code-length table; returns bytes consumed. Throws
/// on truncation, an out-of-range literal count, an empty code, or an
/// over-subscribed (Kraft > 1) table.
std::size_t read_table(const std::uint8_t* data, std::size_t size,
                       std::array<std::uint8_t, kAlphabet>& lengths) {
  MDL_CHECK(size >= 2, "encoded block too small for code-length table");
  const std::uint32_t n_lit =
      static_cast<std::uint32_t>(data[0]) |
      (static_cast<std::uint32_t>(data[1]) << 8);
  MDL_CHECK(n_lit <= kNumLiterals,
            "code table claims " << n_lit << " literals");
  const std::size_t lit_bytes = (n_lit + 1) / 2;
  const std::size_t run_bytes = (kAlphabet - kNumLiterals + 1) / 2;
  MDL_CHECK(size >= 2 + lit_bytes + run_bytes,
            "encoded block truncated inside code-length table");
  lengths.fill(0);
  const auto unpack = [](const std::uint8_t* src, std::uint8_t* lens,
                         std::uint32_t n) {
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint8_t byte = src[i / 2];
      lens[i] = (i % 2 == 0) ? (byte & 0x0F) : (byte >> 4);
    }
  };
  unpack(data + 2, lengths.data(), n_lit);
  unpack(data + 2 + lit_bytes, lengths.data() + kNumLiterals,
         kAlphabet - kNumLiterals);

  std::uint64_t kraft = 0;
  std::uint32_t used = 0;
  for (std::uint32_t s = 0; s < kAlphabet; ++s) {
    if (lengths[s] == 0) continue;
    ++used;
    kraft += 1ULL << (kMaxCodeLen - lengths[s]);
  }
  MDL_CHECK(used > 0, "encoded block has an empty code table");
  MDL_CHECK(kraft <= (1ULL << kMaxCodeLen),
            "over-subscribed code table (Kraft sum > 1)");
  return 2 + lit_bytes + run_bytes;
}

/// Canonical decode tables: per-length symbol counts, first codes, and the
/// (length, symbol)-sorted symbol list.
struct DecodeTable {
  std::array<std::uint32_t, kMaxCodeLen + 1> count{};
  std::array<std::uint32_t, kMaxCodeLen + 1> first_code{};
  std::array<std::uint32_t, kMaxCodeLen + 1> offset{};
  std::vector<std::uint32_t> syms;
};

DecodeTable build_decode_table(
    const std::array<std::uint8_t, kAlphabet>& lengths) {
  DecodeTable t;
  for (std::uint32_t s = 0; s < kAlphabet; ++s)
    if (lengths[s] > 0) ++t.count[lengths[s]];
  std::uint32_t code = 0;
  std::uint32_t index = 0;
  for (std::uint8_t len = 1; len <= kMaxCodeLen; ++len) {
    t.first_code[len] = code;
    t.offset[len] = index;
    // read_table's Kraft check already rules out overflow here.
    code = (code + t.count[len]) << 1;
    index += t.count[len];
  }
  t.syms.reserve(index);
  for (std::uint8_t len = 1; len <= kMaxCodeLen; ++len)
    for (std::uint32_t s = 0; s < kAlphabet; ++s)
      if (lengths[s] == len) t.syms.push_back(s);
  return t;
}

// ---- Block encode / decode -------------------------------------------------

/// Entropy-codes one block into `out` (appended). Returns false when the
/// coded form would not beat the stored form, leaving `out` untouched.
bool encode_block(std::span<const std::uint8_t> raw,
                  std::vector<std::uint8_t>& out) {
  std::vector<Token> tokens;
  tokens.reserve(raw.size() / 2 + 8);
  std::array<std::uint64_t, kAlphabet> freq{};
  for (std::size_t i = 0; i < raw.size();) {
    if (raw[i] == 0) {
      std::size_t run = 1;
      while (i + run < raw.size() && raw[i + run] == 0) ++run;
      emit_run_tokens(run, tokens, freq);
      i += run;
    } else {
      tokens.push_back({raw[i], 0, 0});
      ++freq[raw[i]];
      ++i;
    }
  }

  const auto lengths = limited_code_lengths(freq);
  const auto codes = canonical_codes(lengths);

  std::vector<std::uint8_t> coded;
  coded.reserve(raw.size());
  write_table(lengths, coded);
  BitWriter bw(coded);
  for (const Token& tok : tokens) {
    bw.put(codes[tok.sym], lengths[tok.sym]);
    if (tok.extra_bits > 0)
      bw.put(tok.extra_val, static_cast<std::uint8_t>(tok.extra_bits));
  }
  bw.flush();
  if (coded.size() >= raw.size()) return false;  // stored escape wins
  out.insert(out.end(), coded.begin(), coded.end());
  return true;
}

void decode_block(const std::uint8_t* data, std::size_t enc_len,
                  std::size_t raw_len, std::vector<std::uint8_t>& out) {
  std::array<std::uint8_t, kAlphabet> lengths{};
  const std::size_t table_bytes = read_table(data, enc_len, lengths);
  const DecodeTable table = build_decode_table(lengths);

  BitReader br(data + table_bytes, enc_len - table_bytes);
  std::size_t produced = 0;
  while (produced < raw_len) {
    std::uint32_t code = 0;
    std::uint8_t len = 0;
    std::uint32_t sym = kAlphabet;
    while (true) {
      code = (code << 1) | br.get_bit();
      ++len;
      MDL_CHECK(len <= kMaxCodeLen, "invalid code in encoded block");
      if (table.count[len] > 0 && code >= table.first_code[len] &&
          code - table.first_code[len] < table.count[len]) {
        sym = table.syms[table.offset[len] + (code - table.first_code[len])];
        break;
      }
    }
    if (sym < kNumLiterals) {
      out.push_back(static_cast<std::uint8_t>(sym));
      ++produced;
      continue;
    }
    const RunSym& rs = kRunSyms[sym - kNumLiterals];
    const std::size_t run =
        rs.base + br.get_bits(static_cast<std::uint8_t>(rs.extra_bits));
    MDL_CHECK(produced + run <= raw_len,
              "zero run overflows its block (run " << run << ", "
                  << raw_len - produced << " bytes left)");
    out.insert(out.end(), run, 0);
    produced += run;
  }
  // The encoder never leaves whole unused trailing bytes; only sub-byte
  // padding may remain.
  MDL_CHECK(br.bytes_consumed() == enc_len - table_bytes,
            "trailing bytes after encoded block payload");
}

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
}

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
}

std::uint32_t load_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

BlockCodec::BlockCodec(BlockCodecConfig config) : config_(config) {
  MDL_CHECK(config_.block_size >= 1 && config_.block_size <= kMaxBlockRaw,
            "block_size " << config_.block_size << " outside [1, "
                          << kMaxBlockRaw << "]");
}

std::vector<std::uint8_t> BlockCodec::encode(
    std::span<const std::uint8_t> raw) const {
  std::vector<std::uint8_t> out;
  out.reserve(kStreamHeaderBytes + raw.size() / 2 + 64);
  append_u32(out, kMagic);
  out.push_back(kVersion);
  append_u64(out, raw.size());
  append_u32(out, crc32(raw.data(), raw.size()));

  for (std::size_t off = 0; off < raw.size(); off += config_.block_size) {
    const std::size_t raw_len =
        std::min(config_.block_size, raw.size() - off);
    const std::span<const std::uint8_t> block = raw.subspan(off, raw_len);

    const std::size_t header_at = out.size();
    out.push_back(1);  // provisional type: huffman
    append_u32(out, static_cast<std::uint32_t>(raw_len));
    append_u32(out, 0);  // enc_len backpatched below
    const std::size_t payload_at = out.size();
    if (!encode_block(block, out)) {
      out[header_at] = 0;  // stored escape
      out.insert(out.end(), block.begin(), block.end());
    }
    const auto enc_len = static_cast<std::uint32_t>(out.size() - payload_at);
    for (int i = 0; i < 4; ++i)
      out[header_at + 5 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>((enc_len >> (8 * i)) & 0xFF);
  }
  return out;
}

std::vector<std::uint8_t> BlockCodec::decode(
    std::span<const std::uint8_t> enc) {
  MDL_CHECK(enc.size() >= kStreamHeaderBytes,
            "encoded stream smaller than its header ("
                << enc.size() << " bytes)");
  MDL_CHECK(load_u32(enc.data()) == kMagic, "bad BlockCodec magic");
  MDL_CHECK(enc[4] == kVersion,
            "unsupported BlockCodec version " << static_cast<int>(enc[4]));
  const std::uint64_t raw_size = load_u64(enc.data() + 5);
  const std::uint32_t want_crc = load_u32(enc.data() + 13);

  std::vector<std::uint8_t> out;
  std::size_t pos = kStreamHeaderBytes;
  while (out.size() < raw_size) {
    MDL_CHECK(enc.size() - pos >= kBlockHeaderBytes,
              "encoded stream truncated at a block header");
    const std::uint8_t type = enc[pos];
    const std::uint32_t raw_len = load_u32(enc.data() + pos + 1);
    const std::uint32_t enc_len = load_u32(enc.data() + pos + 5);
    pos += kBlockHeaderBytes;
    MDL_CHECK(type <= 1, "unknown block type " << static_cast<int>(type));
    MDL_CHECK(raw_len >= 1 && raw_len <= kMaxBlockRaw,
              "implausible block raw length " << raw_len);
    MDL_CHECK(raw_len <= raw_size - out.size(),
              "block overflows the declared raw size");
    MDL_CHECK(enc_len <= enc.size() - pos,
              "encoded stream truncated inside a block");
    out.reserve(out.size() + raw_len);
    if (type == 0) {
      MDL_CHECK(enc_len == raw_len,
                "stored block length mismatch: " << enc_len << " vs "
                                                 << raw_len);
      out.insert(out.end(), enc.begin() + static_cast<std::ptrdiff_t>(pos),
                 enc.begin() + static_cast<std::ptrdiff_t>(pos + enc_len));
    } else {
      decode_block(enc.data() + pos, enc_len, raw_len, out);
    }
    pos += enc_len;
  }
  MDL_CHECK(pos == enc.size(),
            "trailing garbage after the encoded stream ("
                << enc.size() - pos << " bytes)");
  MDL_CHECK(crc32(out.data(), out.size()) == want_crc,
            "decoded payload fails its CRC — corrupt encoded stream");
  return out;
}

std::string BlockCodec::encode_string(std::string_view raw) const {
  const auto enc = encode(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(raw.data()), raw.size()));
  return std::string(reinterpret_cast<const char*>(enc.data()), enc.size());
}

std::string BlockCodec::decode_string(std::string_view enc) {
  const auto raw = decode(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(enc.data()), enc.size()));
  return std::string(reinterpret_cast<const char*>(raw.data()), raw.size());
}

bool BlockCodec::looks_encoded(std::string_view bytes) {
  if (bytes.size() < kStreamHeaderBytes) return false;
  return load_u32(reinterpret_cast<const std::uint8_t*>(bytes.data())) ==
             kMagic &&
         static_cast<std::uint8_t>(bytes[4]) == kVersion;
}

std::uint64_t BlockCodec::max_encoded_size(std::uint64_t raw_size,
                                           std::size_t block_size) {
  MDL_CHECK(block_size >= 1, "block_size must be positive");
  const std::uint64_t blocks =
      raw_size == 0 ? 0 : (raw_size + block_size - 1) / block_size;
  return kStreamHeaderBytes + blocks * kBlockHeaderBytes + raw_size;
}

}  // namespace mdl::compress
