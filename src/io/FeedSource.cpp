//===- io/FeedSource.cpp - Byte-stream feed sources ---------------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//

#include "io/FeedSource.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include <unistd.h>

namespace rapid {

FeedSource::~FeedSource() = default;

namespace {

class FdFeedSource final : public FeedSource {
public:
  FdFeedSource(int Fd, std::string Name) : Fd(Fd), Name(std::move(Name)) {}
  ~FdFeedSource() override {
    if (Fd >= 0)
      ::close(Fd);
  }

  long read(char *Buf, size_t Max) override {
    for (;;) {
      const ssize_t N = ::read(Fd, Buf, Max);
      if (N >= 0)
        return static_cast<long>(N);
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        return WouldBlock;
      Err = Status(StatusCode::IoError,
                   "reading " + Name + ": " + std::strerror(errno));
      return Failed;
    }
  }

  int pollFd() const override { return Fd; }
  const std::string &name() const override { return Name; }
  const Status &status() const override { return Err; }

private:
  int Fd;
  std::string Name;
  Status Err;
};

} // namespace

std::unique_ptr<FeedSource> makeFdFeedSource(int Fd, std::string Name) {
  return std::make_unique<FdFeedSource>(Fd, std::move(Name));
}

} // namespace rapid
