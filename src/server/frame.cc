#include "server/frame.h"

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>

namespace st4ml {
namespace server {

namespace {

/// Sends every byte of `iov` (advanced in place) with sendmsg, looping on
/// partial writes and EINTR. MSG_NOSIGNAL: a peer that hung up before its
/// response must surface as an EPIPE IOError on this one connection, not
/// raise SIGPIPE and kill the whole daemon.
Status SendAll(int fd, iovec* iov, size_t count) {
  while (count > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("send: ") + std::strerror(errno));
    }
    size_t sent = static_cast<size_t>(n);
    while (count > 0 && sent >= iov->iov_len) {
      sent -= iov->iov_len;
      ++iov;
      --count;
    }
    if (count > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + sent;
      iov->iov_len -= sent;
    }
  }
  return Status::Ok();
}

/// Reads exactly `size` bytes. *eof is set when the peer closed before the
/// first byte (only meaningful on error return).
Status ReadAll(int fd, char* data, size_t size, bool* eof) {
  *eof = false;
  size_t got = 0;
  while (got < size) {
    ssize_t n = ::read(fd, data + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("read: ") + std::strerror(errno));
    }
    if (n == 0) {
      *eof = (got == 0);
      return Status::IOError("truncated frame: peer closed mid-read");
    }
    got += static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

Status WriteFrame(int fd, const std::string& payload) {
  if (payload.size() > UINT32_MAX) {
    return Status::InvalidArgument("frame payload exceeds 4 GiB");
  }
  uint32_t len = static_cast<uint32_t>(payload.size());
  char prefix[4] = {static_cast<char>((len >> 24) & 0xFF),
                    static_cast<char>((len >> 16) & 0xFF),
                    static_cast<char>((len >> 8) & 0xFF),
                    static_cast<char>(len & 0xFF)};
  // Prefix and payload leave in ONE send: two sends of one small frame
  // would park the second behind Nagle until the peer's delayed ACK.
  iovec iov[2] = {{prefix, sizeof(prefix)},
                  {const_cast<char*>(payload.data()), payload.size()}};
  return SendAll(fd, iov, 2);
}

StatusOr<std::string> ReadFrame(int fd, size_t max_bytes) {
  char prefix[4];
  bool eof = false;
  Status status = ReadAll(fd, prefix, sizeof(prefix), &eof);
  if (!status.ok()) {
    if (eof) return Status::NotFound("connection closed");
    return status;
  }
  uint32_t len = (static_cast<uint32_t>(static_cast<unsigned char>(prefix[0]))
                  << 24) |
                 (static_cast<uint32_t>(static_cast<unsigned char>(prefix[1]))
                  << 16) |
                 (static_cast<uint32_t>(static_cast<unsigned char>(prefix[2]))
                  << 8) |
                 static_cast<uint32_t>(static_cast<unsigned char>(prefix[3]));
  if (len > max_bytes) {
    return Status::InvalidArgument("frame of " + std::to_string(len) +
                                   " bytes exceeds limit of " +
                                   std::to_string(max_bytes));
  }
  std::string payload(len, '\0');
  if (len > 0) {
    ST4ML_RETURN_IF_ERROR(ReadAll(fd, payload.data(), len, &eof));
  }
  return payload;
}

}  // namespace server
}  // namespace st4ml
