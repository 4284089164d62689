#include "transport/shm_lane.h"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#endif

#include <algorithm>
#include <chrono>
#include <thread>

#include "transport/wire.h"
#include "util/logging.h"

namespace sim2rec {
namespace transport {
namespace {

// "S2SH" little-endian, bumped with any layout change. An attach that
// sees a different magic or version refuses rather than guessing.
constexpr uint32_t kLaneMagic = 0x48533253u;
constexpr uint32_t kLaneVersion = 2;

// Lane claim states (LaneHdr::state).
constexpr uint32_t kLaneFree = 0;
constexpr uint32_t kLaneClaimed = 1;

// How long a waiter spins before parking on the futex. Deliberately
// tiny: on a single-core or oversubscribed host the peer cannot make
// progress while we spin, so long spins *add* latency instead of
// hiding it.
constexpr int kSpinIterations = 256;

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Cross-process futex wait: park until *word != expected, a wake, or
/// the timeout. No FUTEX_PRIVATE_FLAG — the word lives in a shared
/// mapping and the peer is another process.
void FutexWait(std::atomic<uint32_t>* word, uint32_t expected,
               int timeout_ms) {
#if defined(__linux__)
  struct timespec ts;
  ts.tv_sec = timeout_ms / 1000;
  ts.tv_nsec = static_cast<long>(timeout_ms % 1000) * 1000000L;
  ::syscall(SYS_futex, reinterpret_cast<uint32_t*>(word), FUTEX_WAIT,
            expected, &ts, nullptr, 0);
#else
  (void)word;
  (void)expected;
  std::this_thread::sleep_for(
      std::chrono::milliseconds(std::min(timeout_ms, 1)));
#endif
}

void FutexWakeAll(std::atomic<uint32_t>* word) {
#if defined(__linux__)
  ::syscall(SYS_futex, reinterpret_cast<uint32_t*>(word), FUTEX_WAKE,
            INT32_MAX, nullptr, nullptr, 0);
#else
  (void)word;
#endif
}

/// One direction of the lane. Producer owns `tail`, consumer owns
/// `head`; both are free-running byte counters (never wrapped), so
/// `tail - head` is the ring occupancy and overflow takes centuries.
/// The futex words are generation counters bumped after every publish
/// (data_seq) or consume (space_seq) so waiters can park without
/// missing a wakeup: read seq, re-check the cursors, then wait on the
/// seq value just read.
struct alignas(64) RingHdr {
  std::atomic<uint64_t> head;
  std::atomic<uint64_t> tail;
  std::atomic<uint32_t> data_seq;   // bumped by the producer
  std::atomic<uint32_t> space_seq;  // bumped by the consumer
  char pad[64 - 2 * sizeof(std::atomic<uint64_t>) -
           2 * sizeof(std::atomic<uint32_t>)];
};
static_assert(sizeof(RingHdr) == 64, "RingHdr must be one cache line");

// The gone flags are *epoch-stamped*: a departing side stores the
// session's epoch (never a bare 1), and readers treat the flag as set
// only when it equals the lane's current epoch. ResetForNextClient
// bumps the epoch, so a late hangup store from a previous session —
// the client tears down with several redundant stores (ShutdownBoth,
// channel Close, ShmLane dtor) and the pump may recycle the lane
// between them — can never read as "gone" in the next session. The
// stores themselves are monotonic-max CAS loops, so a straggler also
// cannot overwrite a newer session's stamp (and a stale stamp never
// blocks the current session from recording its own departure).
struct alignas(64) LaneHdr {
  uint32_t magic;
  uint32_t version;
  uint64_t ring_bytes;
  uint64_t max_frame_bytes;
  std::atomic<uint32_t> state;        // kLaneFree / kLaneClaimed
  std::atomic<uint32_t> epoch;        // client-session generation, from 1
  std::atomic<uint32_t> client_gone;  // epoch stamp: client hung up
  std::atomic<uint32_t> server_gone;  // epoch stamp: server tore down
  char pad[64 - 2 * sizeof(uint32_t) - 2 * sizeof(uint64_t) -
           4 * sizeof(std::atomic<uint32_t>)];
};
static_assert(sizeof(LaneHdr) == 64, "LaneHdr must be one cache line");

/// Departure stamp: mark `flag` as gone for session `epoch`. Monotonic
/// max — a newer session's stamp overwrites a stale leftover, but a
/// stale store from a torn-down client can never clobber the current
/// session's stamp (epochs only grow).
void StampGone(std::atomic<uint32_t>* flag, uint32_t epoch) {
  uint32_t cur = flag->load(std::memory_order_relaxed);
  while (cur < epoch &&
         !flag->compare_exchange_weak(cur, epoch,
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
  }
}

// Segment layout: LaneHdr | RingHdr req | RingHdr rep | req data | rep
// data. The request ring is written by the client, the reply ring by
// the server.
size_t SegmentBytes(size_t ring_bytes) {
  return sizeof(LaneHdr) + 2 * sizeof(RingHdr) + 2 * ring_bytes;
}

LaneHdr* Hdr(void* map) { return static_cast<LaneHdr*>(map); }
RingHdr* ReqRing(void* map) {
  return reinterpret_cast<RingHdr*>(static_cast<char*>(map) +
                                    sizeof(LaneHdr));
}
RingHdr* RepRing(void* map) { return ReqRing(map) + 1; }
uint8_t* ReqData(void* map) {
  return reinterpret_cast<uint8_t*>(RepRing(map) + 1);
}
uint8_t* RepData(void* map, size_t ring_bytes) {
  return ReqData(map) + ring_bytes;
}

std::string ShmPathFor(const std::string& name) { return "/s2r." + name; }

bool ValidLaneName(const std::string& name) {
  if (name.empty() || name.size() > 200) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

/// Both ends' ReadFull/WriteFull against one ring pair. `self_gone` is
/// the flag this end raises on shutdown, `peer_gone` the one it
/// watches.
class ShmChannel : public ByteChannel {
 public:
  ShmChannel(LaneHdr* hdr, RingHdr* read_ring, uint8_t* read_data,
             RingHdr* write_ring, uint8_t* write_data, size_t ring_bytes,
             std::atomic<uint32_t>* self_gone,
             std::atomic<uint32_t>* peer_gone, uint32_t epoch)
      : hdr_(hdr),
        read_ring_(read_ring),
        read_data_(read_data),
        write_ring_(write_ring),
        write_data_(write_data),
        ring_bytes_(ring_bytes),
        self_gone_(self_gone),
        peer_gone_(peer_gone),
        epoch_(epoch) {}

  ~ShmChannel() override { Close(); }

  IoStatus ReadFull(void* buffer, size_t size, int timeout_ms) override {
    if (!valid_.load(std::memory_order_acquire)) return IoStatus::kClosed;
    uint8_t* out = static_cast<uint8_t*>(buffer);
    size_t done = 0;
    const int64_t deadline = NowMs() + timeout_ms;
    while (done < size) {
      const uint64_t head = read_ring_->head.load(std::memory_order_relaxed);
      const uint64_t tail = read_ring_->tail.load(std::memory_order_acquire);
      const size_t avail = static_cast<size_t>(tail - head);
      if (avail > 0) {
        const size_t chunk = std::min(avail, size - done);
        CopyOut(out + done, head, chunk);
        read_ring_->head.store(head + chunk, std::memory_order_release);
        read_ring_->space_seq.fetch_add(1, std::memory_order_release);
        FutexWakeAll(&read_ring_->space_seq);
        done += chunk;
        continue;
      }
      // Drained. A peer that hung up will never produce more; only
      // report kClosed once everything it did produce is consumed, so
      // a final reply followed by a hangup still arrives whole.
      const IoStatus wait = WaitForData(deadline);
      if (wait != IoStatus::kOk) {
        return done == 0 ? wait : (wait == IoStatus::kTimeout
                                       ? IoStatus::kTimeout
                                       : IoStatus::kClosed);
      }
    }
    return IoStatus::kOk;
  }

  IoStatus WriteFull(const void* buffer, size_t size,
                     int timeout_ms) override {
    if (!valid_.load(std::memory_order_acquire)) return IoStatus::kClosed;
    const uint8_t* in = static_cast<const uint8_t*>(buffer);
    size_t done = 0;
    const int64_t deadline = NowMs() + timeout_ms;
    while (done < size) {
      if (ClosedEitherWay()) return IoStatus::kClosed;
      const uint64_t tail =
          write_ring_->tail.load(std::memory_order_relaxed);
      const uint64_t head = write_ring_->head.load(std::memory_order_acquire);
      const size_t space =
          ring_bytes_ - static_cast<size_t>(tail - head);
      if (space > 0) {
        const size_t chunk = std::min(space, size - done);
        CopyIn(tail, in + done, chunk);
        write_ring_->tail.store(tail + chunk, std::memory_order_release);
        write_ring_->data_seq.fetch_add(1, std::memory_order_release);
        FutexWakeAll(&write_ring_->data_seq);
        done += chunk;
        continue;
      }
      const uint32_t seq =
          write_ring_->space_seq.load(std::memory_order_acquire);
      if (SpaceNow() || ClosedEitherWay()) continue;
      const int left = RemainingMs(deadline);
      if (left <= 0) return IoStatus::kTimeout;
      if (!SpinForSpace()) {
        FutexWait(&write_ring_->space_seq, seq, std::min(left, 50));
      }
    }
    return IoStatus::kOk;
  }

  IoStatus WaitReadable(int timeout_ms) override {
    if (!valid_.load(std::memory_order_acquire)) return IoStatus::kClosed;
    const int64_t deadline = NowMs() + timeout_ms;
    return WaitForData(deadline);
  }

  void ShutdownBoth() override {
    // Kept here as well as in the lane: once the peer sees the stamp it
    // may ResetForNextClient, which clears the lane's copy while this
    // end's receiver may still be parked.
    shut_down_.store(true, std::memory_order_release);
    StampGone(self_gone_, epoch_);
    WakeEverything();
  }

  void Close() override {
    if (valid_.exchange(false, std::memory_order_acq_rel)) {
      StampGone(self_gone_, epoch_);
      WakeEverything();
    }
  }

  bool valid() const override {
    return valid_.load(std::memory_order_acquire);
  }

  const char* scheme() const override { return "shm"; }

 private:
  static int RemainingMs(int64_t deadline_ms) {
    const int64_t left = deadline_ms - NowMs();
    return left <= 0 ? 0 : static_cast<int>(std::min<int64_t>(left, 1 << 30));
  }

  bool ClosedEitherWay() const {
    // Compare against this session's epoch: a stale stamp left by a
    // previous client is a different (smaller) value and is ignored.
    return self_gone_->load(std::memory_order_acquire) == epoch_ ||
           peer_gone_->load(std::memory_order_acquire) == epoch_ ||
           shut_down_.load(std::memory_order_acquire) ||
           !valid_.load(std::memory_order_acquire);
  }

  bool DataNow() const {
    return read_ring_->tail.load(std::memory_order_acquire) !=
           read_ring_->head.load(std::memory_order_relaxed);
  }

  bool SpaceNow() const {
    const uint64_t tail = write_ring_->tail.load(std::memory_order_relaxed);
    const uint64_t head = write_ring_->head.load(std::memory_order_acquire);
    return ring_bytes_ - static_cast<size_t>(tail - head) > 0;
  }

  bool SpinForData() const {
    for (int i = 0; i < kSpinIterations; ++i) {
      if (DataNow()) return true;
      std::this_thread::yield();
    }
    return DataNow();
  }

  bool SpinForSpace() const {
    for (int i = 0; i < kSpinIterations; ++i) {
      if (SpaceNow()) return true;
      std::this_thread::yield();
    }
    return SpaceNow();
  }

  /// Blocks until the read ring has bytes, the lane closes, or the
  /// deadline passes. kOk = data waiting.
  IoStatus WaitForData(int64_t deadline) {
    for (;;) {
      if (DataNow()) return IoStatus::kOk;
      if (ClosedEitherWay()) return IoStatus::kClosed;
      const uint32_t seq =
          read_ring_->data_seq.load(std::memory_order_acquire);
      if (DataNow() || ClosedEitherWay()) continue;
      const int left = RemainingMs(deadline);
      if (left <= 0) return IoStatus::kTimeout;
      if (!SpinForData()) {
        // Cap each park so a wake that raced the seq read (or a peer
        // that died without waking us) costs at most one tick.
        FutexWait(&read_ring_->data_seq, seq, std::min(left, 50));
      }
    }
  }

  void CopyOut(uint8_t* dst, uint64_t head, size_t n) const {
    const size_t pos = static_cast<size_t>(head % ring_bytes_);
    const size_t first = std::min(n, ring_bytes_ - pos);
    std::memcpy(dst, read_data_ + pos, first);
    if (n > first) std::memcpy(dst + first, read_data_, n - first);
  }

  void CopyIn(uint64_t tail, const uint8_t* src, size_t n) {
    const size_t pos = static_cast<size_t>(tail % ring_bytes_);
    const size_t first = std::min(n, ring_bytes_ - pos);
    std::memcpy(write_data_ + pos, src, first);
    if (n > first) std::memcpy(write_data_, src + first, n - first);
  }

  /// Wake every futex either side could be parked on, both rings and
  /// both directions — cheap, and shutdown is rare.
  void WakeEverything() {
    read_ring_->data_seq.fetch_add(1, std::memory_order_release);
    read_ring_->space_seq.fetch_add(1, std::memory_order_release);
    write_ring_->data_seq.fetch_add(1, std::memory_order_release);
    write_ring_->space_seq.fetch_add(1, std::memory_order_release);
    FutexWakeAll(&read_ring_->data_seq);
    FutexWakeAll(&read_ring_->space_seq);
    FutexWakeAll(&write_ring_->data_seq);
    FutexWakeAll(&write_ring_->space_seq);
  }

  LaneHdr* hdr_;
  RingHdr* read_ring_;
  uint8_t* read_data_;
  RingHdr* write_ring_;
  uint8_t* write_data_;
  size_t ring_bytes_;
  std::atomic<uint32_t>* self_gone_;
  std::atomic<uint32_t>* peer_gone_;
  uint32_t epoch_;
  std::atomic<bool> valid_{true};
  std::atomic<bool> shut_down_{false};
};

}  // namespace

ShmLane::~ShmLane() {
  if (map_ != nullptr) {
    LaneHdr* hdr = Hdr(map_);
    if (owner_) {
      // Tell any still-attached client the server is gone, then tear
      // the segment down; the client's mapping stays valid until it
      // unmaps, so it observes server_gone instead of faulting. No
      // reset ever runs after this, so stamping the current epoch
      // reaches whichever session is live.
      StampGone(&hdr->server_gone,
                hdr->epoch.load(std::memory_order_acquire));
      hdr->state.store(kLaneClaimed, std::memory_order_release);
      FutexWakeAll(&ReqRing(map_)->space_seq);
      FutexWakeAll(&RepRing(map_)->data_seq);
    } else {
      // Safety net for a client that attached but never closed its
      // channel. CAS-from-0 with *our* epoch: if the pump already
      // recycled the lane for a new session, this neither reads as a
      // departure there nor clobbers the new client's stamp.
      StampGone(&hdr->client_gone, attach_epoch_);
      FutexWakeAll(&ReqRing(map_)->data_seq);
      FutexWakeAll(&RepRing(map_)->space_seq);
    }
    ::munmap(map_, map_bytes_);
  }
  if (owner_ && !shm_path_.empty()) ::shm_unlink(shm_path_.c_str());
}

std::unique_ptr<ShmLane> ShmLane::Create(const std::string& name,
                                         const ShmLaneConfig& config) {
  if (!ValidLaneName(name)) return nullptr;
  // A ring must hold at least one maximal frame or WriteFull could
  // stall forever waiting for space that cannot exist.
  if (config.ring_bytes < config.max_frame_bytes + kFrameHeaderBytes) {
    return nullptr;
  }
  const std::string path = ShmPathFor(name);
  const int fd = ::shm_open(path.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd < 0) return nullptr;
  const size_t bytes = SegmentBytes(config.ring_bytes);
  if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
    ::close(fd);
    ::shm_unlink(path.c_str());
    return nullptr;
  }
  void* map = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                     fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    ::shm_unlink(path.c_str());
    return nullptr;
  }
  std::memset(map, 0, sizeof(LaneHdr) + 2 * sizeof(RingHdr));
  LaneHdr* hdr = Hdr(map);
  hdr->version = kLaneVersion;
  hdr->ring_bytes = config.ring_bytes;
  hdr->max_frame_bytes = config.max_frame_bytes;
  hdr->epoch.store(1, std::memory_order_relaxed);
  // Magic last, released: an Attach racing Create sees either no magic
  // (and refuses) or a fully initialised header.
  reinterpret_cast<std::atomic<uint32_t>*>(&hdr->magic)
      ->store(kLaneMagic, std::memory_order_release);

  auto lane = std::unique_ptr<ShmLane>(new ShmLane());
  lane->name_ = name;
  lane->shm_path_ = path;
  lane->owner_ = true;
  lane->map_ = map;
  lane->map_bytes_ = bytes;
  return lane;
}

std::unique_ptr<ShmLane> ShmLane::Attach(const std::string& name) {
  if (!ValidLaneName(name)) return nullptr;
  const std::string path = ShmPathFor(name);
  const int fd = ::shm_open(path.c_str(), O_RDWR, 0);
  if (fd < 0) return nullptr;
  struct stat st;
  if (::fstat(fd, &st) != 0 ||
      static_cast<size_t>(st.st_size) < SegmentBytes(0)) {
    ::close(fd);
    return nullptr;
  }
  const size_t bytes = static_cast<size_t>(st.st_size);
  void* map = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                     fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) return nullptr;
  LaneHdr* hdr = Hdr(map);
  const uint32_t magic =
      reinterpret_cast<std::atomic<uint32_t>*>(&hdr->magic)
          ->load(std::memory_order_acquire);
  if (magic != kLaneMagic || hdr->version != kLaneVersion ||
      bytes != SegmentBytes(static_cast<size_t>(hdr->ring_bytes)) ||
      hdr->server_gone.load(std::memory_order_acquire) != 0) {
    ::munmap(map, bytes);
    return nullptr;
  }
  uint32_t expected = kLaneFree;
  if (!hdr->state.compare_exchange_strong(expected, kLaneClaimed,
                                          std::memory_order_acq_rel)) {
    ::munmap(map, bytes);
    return nullptr;  // another client holds the lane
  }
  // Claim won. The CAS acquire pairs with the reset's release store on
  // state, so the epoch read here is the one the reset published and
  // the rings are observed pristine.
  auto lane = std::unique_ptr<ShmLane>(new ShmLane());
  lane->name_ = name;
  lane->shm_path_ = path;
  lane->owner_ = false;
  lane->map_ = map;
  lane->map_bytes_ = bytes;
  lane->attach_epoch_ = hdr->epoch.load(std::memory_order_acquire);
  return lane;
}

bool ShmLane::Exists(const std::string& name) {
  if (!ValidLaneName(name)) return false;
  const int fd = ::shm_open(ShmPathFor(name).c_str(), O_RDONLY, 0);
  if (fd < 0) return false;
  ::close(fd);
  return true;
}

std::unique_ptr<ByteChannel> ShmLane::ServerChannel() {
  LaneHdr* hdr = Hdr(map_);
  const size_t ring = static_cast<size_t>(hdr->ring_bytes);
  // The pump creates one channel per client session, after the reset
  // that bumped the epoch — so "current epoch" is this session's.
  return std::make_unique<ShmChannel>(
      hdr, ReqRing(map_), ReqData(map_), RepRing(map_),
      RepData(map_, ring), ring, &hdr->server_gone, &hdr->client_gone,
      hdr->epoch.load(std::memory_order_acquire));
}

std::unique_ptr<ByteChannel> ShmLane::ClientChannel() {
  LaneHdr* hdr = Hdr(map_);
  const size_t ring = static_cast<size_t>(hdr->ring_bytes);
  return std::make_unique<ShmChannel>(
      hdr, RepRing(map_), RepData(map_, ring), ReqRing(map_),
      ReqData(map_), ring, &hdr->client_gone, &hdr->server_gone,
      attach_epoch_);
}

void ShmLane::ResetForNextClient() {
  LaneHdr* hdr = Hdr(map_);
  // Bump the epoch first: from here on, any straggling hangup store
  // from the departed client's teardown carries the old epoch and is
  // invisible to the next session.
  hdr->epoch.fetch_add(1, std::memory_order_acq_rel);
  RingHdr* rings[2] = {ReqRing(map_), RepRing(map_)};
  for (RingHdr* r : rings) {
    r->head.store(0, std::memory_order_relaxed);
    r->tail.store(0, std::memory_order_relaxed);
    r->data_seq.store(0, std::memory_order_relaxed);
    r->space_seq.store(0, std::memory_order_relaxed);
  }
  hdr->client_gone.store(0, std::memory_order_relaxed);
  hdr->server_gone.store(0, std::memory_order_relaxed);
  // Reopen last: once state flips to free a new client may CAS it
  // immediately, and it must find pristine rings.
  hdr->state.store(kLaneFree, std::memory_order_release);
}

bool ShmLane::claimed() const {
  return Hdr(map_)->state.load(std::memory_order_acquire) == kLaneClaimed;
}

bool ShmLane::client_departed() const {
  LaneHdr* hdr = Hdr(map_);
  return hdr->client_gone.load(std::memory_order_acquire) ==
         hdr->epoch.load(std::memory_order_acquire);
}

size_t ShmLane::ring_bytes() const {
  return static_cast<size_t>(Hdr(map_)->ring_bytes);
}

bool ShmAvailable() {
  static const bool available = [] {
    const std::string probe =
        "/s2r.probe." + std::to_string(::getpid());
    const int fd = ::shm_open(probe.c_str(), O_CREAT | O_EXCL | O_RDWR,
                              0600);
    if (fd < 0) return false;
    ::close(fd);
    ::shm_unlink(probe.c_str());
    return true;
  }();
  return available;
}

}  // namespace transport
}  // namespace sim2rec
