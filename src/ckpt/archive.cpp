#include "ckpt/archive.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "compress/codec.hpp"
#include "core/crc32.hpp"

namespace mdl::ckpt {
namespace {

constexpr std::uint32_t kArchiveMagic = 0x4B4C444DU;  // "MDLK" little-endian
constexpr std::uint32_t kArchiveVersionPlain = 1;
constexpr std::uint32_t kArchiveVersionCompressed = 2;
// magic + version + payload length.
constexpr std::size_t kHeaderBytes = 4 + 4 + 8;
constexpr std::size_t kFooterBytes = 4;  // CRC-32

std::uint32_t load_u32(const std::string& s, std::size_t off) {
  std::uint32_t v;
  std::memcpy(&v, s.data() + off, sizeof v);
  return v;
}

std::uint64_t load_u64(const std::string& s, std::size_t off) {
  std::uint64_t v;
  std::memcpy(&v, s.data() + off, sizeof v);
  return v;
}

[[noreturn]] void throw_errno(const std::string& what,
                              const std::string& path) {
  MDL_FAIL("" << what << " `" << path << "`: " << std::strerror(errno));
}

}  // namespace

std::string encode_archive(const PayloadWriter& payload, bool compress) {
  std::ostringstream body;
  {
    BinaryWriter w(body);
    payload(w);
  }
  std::string payload_bytes = body.str();
  if (compress)
    payload_bytes = compress::BlockCodec().encode_string(payload_bytes);

  std::ostringstream out;
  BinaryWriter w(out);
  w.write_u32(kArchiveMagic);
  w.write_u32(compress ? kArchiveVersionCompressed : kArchiveVersionPlain);
  w.write_u64(payload_bytes.size());
  w.write_bytes(payload_bytes.data(), payload_bytes.size());
  std::string framed = out.str();
  const std::uint32_t crc = crc32(framed.data(), framed.size());
  framed.append(reinterpret_cast<const char*>(&crc), sizeof crc);
  return framed;
}

void decode_archive(const std::string& bytes, const PayloadReader& payload) {
  MDL_CHECK(bytes.size() >= kHeaderBytes + kFooterBytes,
            "archive truncated: " << bytes.size() << " bytes is smaller than "
                                  << "the minimal framing");
  const std::uint32_t magic = load_u32(bytes, 0);
  MDL_CHECK(magic == kArchiveMagic,
            "bad checkpoint archive magic 0x" << std::hex << magic);
  const std::uint32_t version = load_u32(bytes, 4);
  MDL_CHECK(version == kArchiveVersionPlain ||
                version == kArchiveVersionCompressed,
            "unsupported checkpoint archive version " << version);
  const std::uint64_t payload_len = load_u64(bytes, 8);
  MDL_CHECK(payload_len == bytes.size() - kHeaderBytes - kFooterBytes,
            "archive length mismatch: header claims " << payload_len
                << " payload bytes, file holds "
                << bytes.size() - kHeaderBytes - kFooterBytes);
  const std::uint32_t stored_crc =
      load_u32(bytes, bytes.size() - kFooterBytes);
  const std::uint32_t actual_crc =
      crc32(bytes.data(), bytes.size() - kFooterBytes);
  MDL_CHECK(stored_crc == actual_crc,
            "archive CRC mismatch: stored 0x" << std::hex << stored_crc
                                              << ", computed 0x"
                                              << actual_crc);

  std::string payload_bytes =
      bytes.substr(kHeaderBytes, static_cast<std::size_t>(payload_len));
  // The CRC above already vouched for the encoded bytes; the codec's
  // hardened decoder is the backstop if the file was tampered with
  // consistently enough to refresh the CRC.
  if (version == kArchiveVersionCompressed)
    payload_bytes = compress::BlockCodec::decode_string(payload_bytes);

  std::istringstream in(std::move(payload_bytes));
  BinaryReader r(in);
  payload(r);
  // A reader that stops early would silently ignore (possibly vital) state.
  in.peek();
  MDL_CHECK(in.eof(), "archive payload not fully consumed");
}

void write_file_atomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("cannot create", tmp);
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw_errno("write failed for", tmp);
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    throw_errno("fsync failed for", tmp);
  }
  if (::close(fd) != 0) throw_errno("close failed for", tmp);
  if (::rename(tmp.c_str(), path.c_str()) != 0)
    throw_errno("rename failed onto", path);

  // Make the rename itself durable: fsync the containing directory.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);  // best effort; some filesystems refuse directory fsync
    ::close(dfd);
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  MDL_CHECK(in.is_open(), "cannot open `" << path << "`");
  std::ostringstream buf;
  buf << in.rdbuf();
  MDL_CHECK(!in.bad(), "read failed for `" << path << "`");
  return buf.str();
}

void save_archive(const std::string& path, const PayloadWriter& payload,
                  bool compress) {
  write_file_atomic(path, encode_archive(payload, compress));
}

void load_archive(const std::string& path, const PayloadReader& payload) {
  decode_archive(read_file(path), payload);
}

}  // namespace mdl::ckpt
