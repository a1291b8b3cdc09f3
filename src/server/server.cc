#include "server/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <chrono>

#if defined(__linux__)
#include <sys/epoll.h>
#endif

#include "obs/log.h"
#include "obs/trace.h"
#include "repl/follower.h"
#include "repl/wal_shipper.h"
#include "storage/record_builder.h"

namespace cqms::server {

namespace {

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status ErrnoStatus(const std::string& what) {
  return Status::IoError(what + ": " + std::string(strerror(errno)));
}

bool SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

// --- internal types --------------------------------------------------------
// (OpCounters latency lives in obs::Histogram now — see server.h.)

struct CqmsServer::Connection {
  explicit Connection(size_t max_frame_bytes) : decoder(max_frame_bytes) {}

  int fd = -1;
  /// Monotonic accept ordinal, carried into protocol-error log lines so
  /// operators can correlate one misbehaving client across events.
  uint64_t id = 0;
  FrameDecoder decoder;
  bool handshaken = false;
  /// Loop-owned: false once the server stops consuming this
  /// connection's input (protocol error, shutdown drain).
  bool reading = true;
  bool close_after_flush = false;
  int64_t last_active_us = 0;
  std::atomic<int> inflight{0};

  /// Non-zero once this connection subscribed as a replication
  /// follower (written on the writer thread, read at CloseConn on the
  /// loop thread).
  std::atomic<uint64_t> repl_follower_id{0};

  std::mutex out_mu;
  std::string outbox;  ///< Encoded frames awaiting write.
  size_t out_off = 0;
  bool closed = false;     ///< fd closed; drop late responses.
  bool overflow = false;   ///< Outbox ceiling breached; hard-close.
  bool want_write = false; /// Loop-owned: EPOLLOUT currently armed.

  size_t PendingOut() {
    std::lock_guard<std::mutex> lock(out_mu);
    return outbox.size() - out_off;
  }
};

struct CqmsServer::Task {
  std::shared_ptr<Connection> conn;
  uint64_t request_id = 0;
  net::Op op = net::Op::kHello;
  std::string body;
  int64_t enqueue_us = 0;
  /// Non-null: a bare writer-thread closure (replication frame apply)
  /// instead of a wire request; every other field is ignored.
  std::function<void()> work;
};

class CqmsServer::TaskQueue {
 public:
  /// False once stopped (and drained).
  bool Pop(Task* out) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return stopped_ || !tasks_.empty(); });
    if (tasks_.empty()) return false;
    *out = std::move(tasks_.front());
    tasks_.pop_front();
    return true;
  }

  /// False (task dropped) once Stop() ran. A true return guarantees the
  /// task will be popped: the consumer only exits on stopped + empty,
  /// and Stop and Push serialize on the same mutex — the guarantee
  /// RunOnWriter's unbounded completion wait rests on.
  bool Push(Task task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopped_) return false;
      tasks_.push_back(std::move(task));
    }
    cv_.notify_one();
    return true;
  }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopped_ = true;
    }
    cv_.notify_all();
  }

  bool Empty() {
    std::lock_guard<std::mutex> lock(mu_);
    return tasks_.empty();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> tasks_;
  bool stopped_ = false;
};

// --- pollers ---------------------------------------------------------------

struct PollEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  bool error = false;
};

class CqmsServer::Poller {
 public:
  virtual ~Poller() = default;
  virtual Status Add(int fd, bool want_read, bool want_write) = 0;
  virtual Status Update(int fd, bool want_read, bool want_write) = 0;
  virtual void Remove(int fd) = 0;
  virtual void Wait(int timeout_ms, std::vector<PollEvent>* out) = 0;
};

/// Portable fallback: rebuilds the pollfd array per wait. O(conns) per
/// iteration — fine for the connection counts the fallback targets.
class CqmsServer::PollPoller : public Poller {
 public:
  Status Add(int fd, bool want_read, bool want_write) override {
    want_[fd] = Events(want_read, want_write);
    return Status::Ok();
  }
  Status Update(int fd, bool want_read, bool want_write) override {
    want_[fd] = Events(want_read, want_write);
    return Status::Ok();
  }
  void Remove(int fd) override { want_.erase(fd); }

  void Wait(int timeout_ms, std::vector<PollEvent>* out) override {
    fds_.clear();
    for (const auto& [fd, events] : want_) {
      fds_.push_back(pollfd{fd, events, 0});
    }
    int n = ::poll(fds_.data(), fds_.size(), timeout_ms);
    if (n <= 0) return;
    for (const pollfd& p : fds_) {
      if (p.revents == 0) continue;
      PollEvent ev;
      ev.fd = p.fd;
      ev.readable = (p.revents & (POLLIN | POLLHUP)) != 0;
      ev.writable = (p.revents & POLLOUT) != 0;
      ev.error = (p.revents & (POLLERR | POLLNVAL)) != 0;
      out->push_back(ev);
    }
  }

 private:
  static short Events(bool r, bool w) {
    return static_cast<short>((r ? POLLIN : 0) | (w ? POLLOUT : 0));
  }
  std::unordered_map<int, short> want_;
  std::vector<pollfd> fds_;
};

#if defined(__linux__)
class CqmsServer::EpollPoller : public Poller {
 public:
  EpollPoller() : ep_(epoll_create1(EPOLL_CLOEXEC)) {}
  ~EpollPoller() override {
    if (ep_ >= 0) ::close(ep_);
  }

  bool valid() const { return ep_ >= 0; }

  Status Add(int fd, bool want_read, bool want_write) override {
    epoll_event ev = Event(fd, want_read, want_write);
    if (epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      return ErrnoStatus("epoll_ctl(ADD)");
    }
    return Status::Ok();
  }

  Status Update(int fd, bool want_read, bool want_write) override {
    epoll_event ev = Event(fd, want_read, want_write);
    if (epoll_ctl(ep_, EPOLL_CTL_MOD, fd, &ev) != 0) {
      return ErrnoStatus("epoll_ctl(MOD)");
    }
    return Status::Ok();
  }

  void Remove(int fd) override { epoll_ctl(ep_, EPOLL_CTL_DEL, fd, nullptr); }

  void Wait(int timeout_ms, std::vector<PollEvent>* out) override {
    epoll_event events[64];
    int n = epoll_wait(ep_, events, 64, timeout_ms);
    for (int i = 0; i < n; ++i) {
      PollEvent ev;
      ev.fd = events[i].data.fd;
      ev.readable = (events[i].events & (EPOLLIN | EPOLLHUP)) != 0;
      ev.writable = (events[i].events & EPOLLOUT) != 0;
      ev.error = (events[i].events & EPOLLERR) != 0;
      out->push_back(ev);
    }
  }

 private:
  static epoll_event Event(int fd, bool r, bool w) {
    epoll_event ev;
    ev.events = (r ? EPOLLIN : 0u) | (w ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    return ev;
  }
  int ep_;
};
#endif  // __linux__

// --- lifecycle -------------------------------------------------------------

CqmsServer::CqmsServer(Cqms* cqms, ServerOptions options)
    : cqms_(cqms), options_(std::move(options)) {
  if (options_.workers == 0) options_.workers = 1;
  // Non-owning alias: the caller keeps ownership of the initial
  // instance. InstallCqms may later swap in an owned replacement.
  live_cqms_ = std::shared_ptr<Cqms>(cqms, [](Cqms*) {});
}

CqmsServer::~CqmsServer() { Shutdown(); }

std::shared_ptr<Cqms> CqmsServer::current_cqms() const {
  std::lock_guard<std::mutex> lock(cqms_mu_);
  return live_cqms_;
}

void CqmsServer::InstallCqms(std::shared_ptr<Cqms> cqms) {
  std::lock_guard<std::mutex> lock(cqms_mu_);
  live_cqms_ = std::move(cqms);
}

Status CqmsServer::RunOnWriter(std::function<Status()> fn) {
  if (!running_.load(std::memory_order_acquire)) {
    return Status::Unavailable("server is not running");
  }
  struct Completion {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status;
  };
  auto completion = std::make_shared<Completion>();
  Task task;
  task.work = [fn = std::move(fn), completion] {
    Status s = fn();
    std::lock_guard<std::mutex> lock(completion->mu);
    completion->status = std::move(s);
    completion->done = true;
    completion->cv.notify_all();
  };
  if (!write_queue_->Push(std::move(task))) {
    return Status::Unavailable("server writer has stopped");
  }
  // Unbounded wait is safe: a successful Push guarantees the writer
  // pops and runs the closure before it exits.
  std::unique_lock<std::mutex> lock(completion->mu);
  completion->cv.wait(lock, [&] { return completion->done; });
  return completion->status;
}

Status CqmsServer::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_) return Status::InvalidArgument("server already started");

  if (options_.slow_query_micros > 0) {
    if (options_.slow_query_log_path.empty()) {
      return Status::InvalidArgument(
          "slow_query_micros set but slow_query_log_path is empty");
    }
    if (!slow_log_.Open(options_.slow_query_log_path)) {
      return Status::IoError("cannot open slow-query log: " +
                             options_.slow_query_log_path);
    }
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return ErrnoStatus("socket");
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (!SetNonBlocking(listen_fd_)) return ErrnoStatus("fcntl(listen)");

  sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("unparsable bind address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return ErrnoStatus("bind " + options_.host + ":" +
                       std::to_string(options_.port));
  }
  if (::listen(listen_fd_, 128) != 0) return ErrnoStatus("listen");
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return ErrnoStatus("getsockname");
  }
  port_ = ntohs(addr.sin_port);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return ErrnoStatus("pipe");
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  SetNonBlocking(wake_read_fd_);
  SetNonBlocking(wake_write_fd_);

#if defined(__linux__)
  if (!options_.use_poll) {
    auto ep = std::make_unique<EpollPoller>();
    if (ep->valid()) poller_ = std::move(ep);
  }
#endif
  if (poller_ == nullptr) poller_ = std::make_unique<PollPoller>();
  CQMS_RETURN_IF_ERROR(poller_->Add(listen_fd_, true, false));
  CQMS_RETURN_IF_ERROR(poller_->Add(wake_read_fd_, true, false));

  // From here on the server's writer thread owns all mutations; turning
  // on the read-view pipeline now (still single-threaded) is safe.
  if (!cqms_->store()->views_enabled()) {
    cqms_->EnableConcurrentReads();
  }

  // Primary with durability: tail the WAL into the shipping engine.
  // Installed before any thread exists, so the writer thread observes
  // the hook from its first mutation.
  if (!follower_mode() && cqms_->durable() != nullptr) {
    shipper_ = std::make_unique<repl::WalShipper>(cqms_->durable_store(),
                                                  cqms_->store());
    cqms_->durable_store()->SetShippingHook(shipper_.get());
  }

  read_queue_ = std::make_unique<TaskQueue>();
  write_queue_ = std::make_unique<TaskQueue>();
  start_micros_ = NowMicros();
  running_.store(true, std::memory_order_release);

  loop_thread_ = std::thread(&CqmsServer::LoopThread, this);
  writer_thread_ = std::thread(&CqmsServer::WriterThread, this);
  worker_threads_.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    worker_threads_.emplace_back(&CqmsServer::WorkerThread, this);
  }
  started_ = true;
  return Status::Ok();
}

void CqmsServer::RequestShutdown() {
  stop_requested_.store(true, std::memory_order_release);
  if (wake_write_fd_ >= 0) {
    char byte = 'x';
    [[maybe_unused]] ssize_t n = ::write(wake_write_fd_, &byte, 1);
  }
}

void CqmsServer::Shutdown() {
  RequestShutdown();
  Wait();
}

void CqmsServer::Wait() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (!started_ || joined_) return;
  if (loop_thread_.joinable()) loop_thread_.join();
  // The loop drained every queued request and flushed every response
  // before exiting; release the workers and the writer.
  read_queue_->Stop();
  write_queue_->Stop();
  for (std::thread& t : worker_threads_) {
    if (t.joinable()) t.join();
  }
  if (writer_thread_.joinable()) writer_thread_.join();
  // The writer is gone: no more WAL appends, safe to unhook shipping.
  if (shipper_ != nullptr) cqms_->durable_store()->SetShippingHook(nullptr);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
  wake_read_fd_ = wake_write_fd_ = -1;
  running_.store(false, std::memory_order_release);
  joined_ = true;
}

void CqmsServer::NotifyLoop() {
  if (wake_write_fd_ >= 0) {
    char byte = 'w';
    [[maybe_unused]] ssize_t n = ::write(wake_write_fd_, &byte, 1);
  }
}

// --- event loop ------------------------------------------------------------

void CqmsServer::LoopThread() {
  std::vector<PollEvent> events;
  std::vector<std::shared_ptr<Connection>> flushable;
  int64_t last_sweep_us = NowMicros();
  int64_t last_heartbeat_us = last_sweep_us;
  bool draining = false;

  while (true) {
    if (!draining && stop_requested_.load(std::memory_order_acquire)) {
      draining = true;
      if (listen_fd_ >= 0) {
        poller_->Remove(listen_fd_);
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      // Stop consuming input: every already-dispatched request still
      // completes and flushes, nothing new is read.
      for (auto& [fd, conn] : conns_) {
        if (conn->reading) {
          conn->reading = false;
          poller_->Update(fd, false, conn->want_write);
        }
      }
    }

    // Flush connections whose outbox grew since the last iteration.
    {
      std::lock_guard<std::mutex> lock(pending_out_mu_);
      flushable.swap(pending_out_);
    }
    for (const std::shared_ptr<Connection>& conn : flushable) {
      if (conn->fd >= 0 && conns_.count(conn->fd) != 0) FlushConn(conn);
    }
    flushable.clear();

    if (draining) {
      bool outboxes_empty = true;
      for (auto& [fd, conn] : conns_) {
        (void)fd;
        if (conn->PendingOut() > 0) {
          outboxes_empty = false;
          break;
        }
      }
      if (inflight_.load(std::memory_order_acquire) == 0 &&
          read_queue_->Empty() && write_queue_->Empty() && outboxes_empty) {
        break;
      }
    }

    events.clear();
    poller_->Wait(draining ? 10 : 100, &events);
    for (const PollEvent& ev : events) {
      if (ev.fd == wake_read_fd_) {
        char buf[256];
        while (::read(wake_read_fd_, buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      if (ev.fd == listen_fd_) {
        if (!draining) AcceptNew();
        continue;
      }
      auto it = conns_.find(ev.fd);
      if (it == conns_.end()) continue;
      std::shared_ptr<Connection> conn = it->second;
      if (ev.error) {
        CloseConn(conn);
        continue;
      }
      if (ev.writable) FlushConn(conn);
      if (ev.readable && conns_.count(ev.fd) != 0) HandleReadable(conn);
    }

    // Idle sweep, at most a few times per second.
    int64_t now = NowMicros();
    if (!draining && options_.idle_timeout_ms > 0 &&
        now - last_sweep_us > 200 * 1000) {
      last_sweep_us = now;
      SweepIdle();
    }

    // Replication heartbeats: followers read them as liveness during
    // write silence.
    if (!draining && shipper_ != nullptr && options_.repl_heartbeat_ms > 0 &&
        now - last_heartbeat_us > options_.repl_heartbeat_ms * 1000) {
      last_heartbeat_us = now;
      shipper_->HeartbeatTick();
    }
  }

  // Drained: close everything.
  std::vector<std::shared_ptr<Connection>> remaining;
  remaining.reserve(conns_.size());
  for (auto& [fd, conn] : conns_) {
    (void)fd;
    remaining.push_back(conn);
  }
  for (const std::shared_ptr<Connection>& conn : remaining) CloseConn(conn);
}

void CqmsServer::AcceptNew() {
  while (true) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error; retried by epoll.
    if (conns_.size() >= options_.max_conns) {
      rejected_conns_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    SetNonBlocking(fd);
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>(options_.max_frame_bytes);
    conn->fd = fd;
    conn->last_active_us = NowMicros();
    if (!poller_->Add(fd, true, false).ok()) {
      ::close(fd);
      continue;
    }
    conn->id = total_conns_.fetch_add(1, std::memory_order_relaxed) + 1;
    conns_.emplace(fd, std::move(conn));
    active_conns_.fetch_add(1, std::memory_order_relaxed);
  }
}

void CqmsServer::HandleReadable(const std::shared_ptr<Connection>& conn) {
  if (!conn->reading) {
    // Still drain the socket so the peer is not wedged on a full send
    // buffer, but discard the bytes.
    char sink[4096];
    while (::read(conn->fd, sink, sizeof(sink)) > 0) {
    }
    return;
  }
  char buf[65536];
  bool peer_closed = false;
  while (true) {
    ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->decoder.Feed(buf, static_cast<size_t>(n));
      conn->last_active_us = NowMicros();
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    peer_closed = true;
    break;
  }

  std::string payload;
  while (conn->reading) {
    FrameDecoder::Next next = conn->decoder.Poll(&payload);
    if (next == FrameDecoder::Next::kNeedMore) break;
    if (next == FrameDecoder::Next::kError) {
      // Stream synchronization is lost: answer with a typed protocol
      // error the client can log, then disconnect.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      CQMS_LOG(kWarn, "conn %llu: framing error: %s",
               static_cast<unsigned long long>(conn->id),
               conn->decoder.error().ToString().c_str());
      SendError(conn, 0, net::Op::kHello, conn->decoder.error());
      conn->reading = false;
      conn->close_after_flush = true;
      if (conns_.count(conn->fd) != 0) {
        poller_->Update(conn->fd, false, conn->want_write);
      }
      break;
    }
    DispatchFrame(conn, std::move(payload));
    if (conns_.count(conn->fd) == 0) return;  // dispatch closed it
  }

  if (peer_closed && conns_.count(conn->fd) != 0) CloseConn(conn);
}

void CqmsServer::DispatchFrame(const std::shared_ptr<Connection>& conn,
                               std::string payload) {
  net::RequestEnvelope env;
  if (!net::DecodeRequestEnvelope(payload, &env)) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    CQMS_LOG(kWarn, "conn %llu: malformed request envelope (%zu bytes)",
             static_cast<unsigned long long>(conn->id), payload.size());
    SendError(conn, 0, net::Op::kHello,
              Status::InvalidArgument("malformed request envelope"));
    conn->reading = false;
    conn->close_after_flush = true;
    poller_->Update(conn->fd, false, conn->want_write);
    return;
  }

  OpCounters& counters = CountersFor(env.op);
  counters.count.fetch_add(1, std::memory_order_relaxed);
  counters.bytes_in.fetch_add(payload.size() + kFrameHeaderBytes,
                              std::memory_order_relaxed);

  if (!conn->handshaken) {
    if (env.op != net::Op::kHello) {
      SendError(conn, env.request_id, env.op,
                Status::InvalidArgument("handshake required before any op"));
      conn->reading = false;
      conn->close_after_flush = true;
      poller_->Update(conn->fd, false, conn->want_write);
      return;
    }
    net::HelloRequest hello;
    BinaryReader r(env.body);
    if (!net::DecodeHelloRequest(&r, &hello) || !r.AtEnd()) {
      SendError(conn, env.request_id, env.op,
                Status::InvalidArgument("malformed Hello body"));
      conn->reading = false;
      conn->close_after_flush = true;
      poller_->Update(conn->fd, false, conn->want_write);
      return;
    }
    if (hello.protocol_version != net::kProtocolVersion) {
      SendError(conn, env.request_id, env.op,
                Status::Unsupported(
                    "protocol version mismatch: server speaks " +
                    std::to_string(net::kProtocolVersion) + ", client sent " +
                    std::to_string(hello.protocol_version)));
      conn->reading = false;
      conn->close_after_flush = true;
      poller_->Update(conn->fd, false, conn->want_write);
      return;
    }
    conn->handshaken = true;
    net::HelloResponse resp;
    resp.protocol_version = net::kProtocolVersion;
    resp.server_version = kServerVersion;
    std::shared_ptr<const storage::ReadViewState> view =
        current_cqms()->CurrentReadView();
    resp.store_size = view != nullptr ? view->size() : 0;
    BinaryWriter w;
    net::BeginResponse(&w, env.request_id, env.op);
    net::EncodeHelloResponse(&w, resp);
    SendPayload(conn, w.data());
    return;
  }

  if (env.op == net::Op::kHello) {
    SendError(conn, env.request_id, env.op,
              Status::InvalidArgument("duplicate handshake"));
    return;
  }

  if (stop_requested_.load(std::memory_order_acquire)) {
    SendError(conn, env.request_id, env.op,
              Status::Unavailable("server is shutting down"));
    return;
  }

  if (follower_mode()) {
    switch (env.op) {
      case net::Op::kSearch:
      case net::Op::kRecommend:
      case net::Op::kBrowse:
      case net::Op::kShowSession:
      case net::Op::kStats:
      case net::Op::kMetricsDump:
        break;  // Reads serve from the replicated store.
      default:
        // Mutations (and chained replication subscriptions) belong on
        // the primary; the typed error carries its address so failover
        // clients redirect without a config lookup.
        SendError(conn, env.request_id, env.op,
                  Status::NotPrimary(
                      net::FormatNotPrimary(options_.follow_primary)));
        return;
    }
  }

  if (env.op == net::Op::kReplAck) {
    // Fire-and-forget progress report from a follower; cheap enough to
    // absorb inline on the loop thread.
    net::ReplAckRequest ack;
    BinaryReader r(env.body);
    if (!net::DecodeReplAckRequest(&r, &ack) || !r.AtEnd()) {
      SendError(conn, env.request_id, env.op,
                Status::InvalidArgument("malformed ReplAck body"));
      return;
    }
    uint64_t follower_id =
        conn->repl_follower_id.load(std::memory_order_relaxed);
    if (shipper_ != nullptr && follower_id != 0) {
      shipper_->Ack(follower_id, ack.acked_sequence);
    }
    BinaryWriter w;
    net::BeginResponse(&w, env.request_id, env.op);
    SendPayload(conn, w.data());
    return;
  }

  if (env.op == net::Op::kStats || env.op == net::Op::kMetricsDump) {
    // Introspection ops execute inline on the loop thread: they touch
    // only atomics, never the store, and must answer even when every
    // worker is wedged behind slow queries.
    Task task;
    task.conn = conn;
    task.request_id = env.request_id;
    task.op = env.op;
    task.enqueue_us = NowMicros();
    SendPayload(conn, env.op == net::Op::kStats ? HandleStats(task)
                                                : HandleMetricsDump(task));
    CountersFor(env.op).RecordLatency(
        static_cast<uint64_t>(NowMicros() - task.enqueue_us));
    return;
  }

  Task task;
  task.conn = conn;
  task.request_id = env.request_id;
  task.op = env.op;
  task.body.assign(env.body.data(), env.body.size());
  task.enqueue_us = NowMicros();
  conn->inflight.fetch_add(1, std::memory_order_relaxed);
  inflight_.fetch_add(1, std::memory_order_acq_rel);
  if (env.op == net::Op::kSearch || env.op == net::Op::kRecommend) {
    read_queue_->Push(std::move(task));
  } else {
    write_queue_->Push(std::move(task));
  }
}

void CqmsServer::SendPayload(const std::shared_ptr<Connection>& conn,
                             const std::string& payload) {
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    if (conn->closed) return;
    AppendFrame(&conn->outbox, payload);
    if (conn->outbox.size() - conn->out_off > options_.max_outbox_bytes) {
      conn->overflow = true;
    }
  }
  {
    std::lock_guard<std::mutex> lock(pending_out_mu_);
    pending_out_.push_back(conn);
  }
  NotifyLoop();
}

void CqmsServer::SendError(const std::shared_ptr<Connection>& conn,
                           uint64_t request_id, net::Op op,
                           const Status& error) {
  CountersFor(op).errors.fetch_add(1, std::memory_order_relaxed);
  BinaryWriter w;
  net::EncodeErrorResponse(&w, request_id, op, error);
  SendPayload(conn, w.data());
}

void CqmsServer::FlushConn(const std::shared_ptr<Connection>& conn) {
  if (conn->fd < 0 || conns_.count(conn->fd) == 0) return;
  bool kill = false;
  bool empty = false;
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    if (conn->closed) return;
    if (conn->overflow) {
      kill = true;
    } else {
      while (conn->out_off < conn->outbox.size()) {
        ssize_t n = ::write(conn->fd, conn->outbox.data() + conn->out_off,
                            conn->outbox.size() - conn->out_off);
        if (n > 0) {
          conn->out_off += static_cast<size_t>(n);
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        kill = true;  // EPIPE / ECONNRESET: peer is gone.
        break;
      }
      if (conn->out_off == conn->outbox.size()) {
        conn->outbox.clear();
        conn->out_off = 0;
        empty = true;
      } else if (conn->out_off > (1u << 20)) {
        conn->outbox.erase(0, conn->out_off);
        conn->out_off = 0;
      }
    }
  }
  if (kill) {
    CloseConn(conn);
    return;
  }
  if (empty && conn->close_after_flush &&
      conn->inflight.load(std::memory_order_acquire) == 0) {
    CloseConn(conn);
    return;
  }
  bool want_write = !empty;
  if (want_write != conn->want_write) {
    conn->want_write = want_write;
    poller_->Update(conn->fd, conn->reading, want_write);
  }
}

void CqmsServer::CloseConn(const std::shared_ptr<Connection>& conn) {
  if (conn->fd < 0) return;
  auto it = conns_.find(conn->fd);
  if (it == conns_.end() || it->second != conn) return;
  uint64_t follower_id = conn->repl_follower_id.load(std::memory_order_relaxed);
  if (follower_id != 0 && shipper_ != nullptr) {
    shipper_->RemoveFollower(follower_id);
  }
  poller_->Remove(conn->fd);
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    conn->closed = true;
    ::close(conn->fd);
  }
  conns_.erase(it);
  conn->fd = -1;
  active_conns_.fetch_sub(1, std::memory_order_relaxed);
}

void CqmsServer::SweepIdle() {
  int64_t now = NowMicros();
  int64_t limit_us = options_.idle_timeout_ms * 1000;
  std::vector<std::shared_ptr<Connection>> idle;
  for (auto& [fd, conn] : conns_) {
    (void)fd;
    if (conn->inflight.load(std::memory_order_acquire) > 0) continue;
    if (conn->PendingOut() > 0) continue;
    if (now - conn->last_active_us > limit_us) idle.push_back(conn);
  }
  for (const std::shared_ptr<Connection>& conn : idle) CloseConn(conn);
}

// --- request execution -----------------------------------------------------

void CqmsServer::WorkerThread() {
  Task task;
  while (read_queue_->Pop(&task)) {
    ExecuteTask(task);
    task = Task();
  }
}

void CqmsServer::WriterThread() {
  Task task;
  while (write_queue_->Pop(&task)) {
    ExecuteTask(task);
    task = Task();
  }
  // Drained and stopped: leave a durable state behind (the graceful-
  // shutdown contract: every acknowledged write survives reopen even
  // without WAL replay).
  if (cqms_->durable() != nullptr) cqms_->Checkpoint();
}

void CqmsServer::ExecuteTask(const Task& task) {
  if (task.work) {
    task.work();  // Bare writer closure: no connection, no response.
    return;
  }
  std::string payload;
  int64_t now = NowMicros();
  if (options_.request_timeout_ms > 0 &&
      now - task.enqueue_us > options_.request_timeout_ms * 1000) {
    CountersFor(task.op).errors.fetch_add(1, std::memory_order_relaxed);
    BinaryWriter w;
    net::EncodeErrorResponse(
        &w, task.request_id, task.op,
        Status::DeadlineExceeded("request exceeded queue deadline of " +
                                 std::to_string(options_.request_timeout_ms) +
                                 "ms"));
    payload = w.Take();
  } else {
    switch (task.op) {
      case net::Op::kSearch:
        payload = HandleSearch(task);
        break;
      case net::Op::kRecommend:
        payload = HandleRecommend(task);
        break;
      default:
        payload = HandleWriterOp(task);
        break;
    }
  }
  // An empty payload means the handler streamed its own responses
  // (ReplSubscribe pushes the subscribe result + bootstrap directly).
  if (!payload.empty()) {
    CountersFor(task.op).bytes_out.fetch_add(payload.size() + kFrameHeaderBytes,
                                             std::memory_order_relaxed);
    SendPayload(task.conn, payload);
  }
  CountersFor(task.op).RecordLatency(
      static_cast<uint64_t>(NowMicros() - task.enqueue_us));
  task.conn->inflight.fetch_sub(1, std::memory_order_relaxed);
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
  NotifyLoop();
}

std::string CqmsServer::HandleSearch(const Task& task) {
  net::SearchRequest req;
  BinaryReader r(task.body);
  auto fail = [&](const Status& s) {
    CountersFor(task.op).errors.fetch_add(1, std::memory_order_relaxed);
    BinaryWriter w;
    net::EncodeErrorResponse(&w, task.request_id, task.op, s);
    return w.Take();
  };
  if (!net::DecodeSearchRequest(&r, &req) || !r.AtEnd()) {
    return fail(Status::InvalidArgument("malformed Search body"));
  }
  if (req.spec.data.has_value() && req.spec.data->reexecute) {
    return fail(Status::Unsupported(
        "query-by-data re-execution is not available over the wire"));
  }
  storage::QueryRecord probe;
  const storage::QueryRecord* probe_ptr = nullptr;
  if (req.spec.similarity.has_value()) {
    probe = storage::BuildRecordFromText(req.spec.similarity->probe_text,
                                         req.viewer, 0,
                                         storage::SignatureMode::kTransient);
    probe_ptr = &probe;
  }
  metaquery::MetaQueryRequest mreq = net::ToMetaQueryRequest(req.spec, probe_ptr);

  // One ExecTrace serves both consumers: the wire response (client asked
  // with want_trace) and the slow-query log (execution crossed the
  // operator's threshold). Untraced searches keep a null pointer so the
  // planner pays nothing.
  obs::ExecTrace trace;
  const bool slow_enabled = options_.slow_query_micros > 0;
  if (req.spec.want_trace || slow_enabled) mreq.trace = &trace;
  const int64_t exec_start = NowMicros();
  std::shared_ptr<Cqms> cqms = current_cqms();
  metaquery::MetaQueryResponse mresp = cqms->Search(req.viewer, mreq);
  const int64_t exec_micros = NowMicros() - exec_start;
  if (slow_enabled && exec_micros >= options_.slow_query_micros) {
    slow_log_.Write(req.viewer, "Search", exec_micros, trace);
  }

  net::SearchResult out;
  out.matches.reserve(mresp.matches.size());
  for (const metaquery::MetaQueryMatch& m : mresp.matches) {
    out.matches.push_back({m.id, m.similarity, m.score});
  }
  out.generator = static_cast<uint8_t>(mresp.generator);
  out.candidates_considered = mresp.candidates_considered;
  if (req.spec.want_trace) {
    out.trace.emplace();
    out.trace->generator = trace.generator;
    out.trace->counters = trace.counters;
    out.trace->spans_micros = trace.spans;
  }

  BinaryWriter w;
  net::BeginResponse(&w, task.request_id, task.op);
  net::EncodeSearchResult(&w, out);
  return w.Take();
}

std::string CqmsServer::HandleRecommend(const Task& task) {
  net::RecommendRequest req;
  BinaryReader r(task.body);
  auto fail = [&](const Status& s) {
    CountersFor(task.op).errors.fetch_add(1, std::memory_order_relaxed);
    BinaryWriter w;
    net::EncodeErrorResponse(&w, task.request_id, task.op, s);
    return w.Take();
  };
  if (!net::DecodeRecommendRequest(&r, &req) || !r.AtEnd()) {
    return fail(Status::InvalidArgument("malformed Recommend body"));
  }

  auto recs = current_cqms()->Recommend(req.viewer, req.sql_text, req.k);
  if (!recs.ok()) return fail(recs.status());
  net::RecommendResult out;
  out.items.reserve(recs->size());
  for (assist::Recommendation& rec : *recs) {
    out.items.push_back({rec.id, rec.score, rec.similarity, std::move(rec.text),
                         std::move(rec.diff), std::move(rec.annotation)});
  }

  BinaryWriter w;
  net::BeginResponse(&w, task.request_id, task.op);
  net::EncodeRecommendResult(&w, out);
  return w.Take();
}

std::string CqmsServer::HandleWriterOp(const Task& task) {
  BinaryReader r(task.body);
  BinaryWriter w;
  std::shared_ptr<Cqms> cqms = current_cqms();
  auto fail = [&](const Status& s) {
    CountersFor(task.op).errors.fetch_add(1, std::memory_order_relaxed);
    BinaryWriter ew;
    net::EncodeErrorResponse(&ew, task.request_id, task.op, s);
    return ew.Take();
  };
  auto malformed = [&] {
    return fail(Status::InvalidArgument(std::string("malformed ") +
                                        net::OpName(task.op) + " body"));
  };
  auto from_status = [&](const Status& s) {
    if (!s.ok()) return fail(s);
    BinaryWriter ok;
    net::BeginResponse(&ok, task.request_id, task.op);
    return ok.Take();
  };

  switch (task.op) {
    case net::Op::kAppend: {
      net::AppendRequest req;
      if (!net::DecodeAppendRequest(&r, &req) || !r.AtEnd()) return malformed();
      if (req.user.empty()) {
        return fail(Status::InvalidArgument("Append requires a user"));
      }
      net::AppendResult result;
      if (req.execute) {
        profiler::ProfiledExecution exec = cqms->Execute(req.user, req.sql);
        result.id = exec.query_id;
        result.succeeded = exec.stats.succeeded;
        result.error = exec.stats.error;
        result.result_rows = exec.stats.result_rows;
        result.exec_micros = exec.stats.execution_micros;
      } else {
        result.id = cqms->profiler().LogOnly(req.sql, req.user);
        result.succeeded = true;
      }
      net::BeginResponse(&w, task.request_id, task.op);
      net::EncodeAppendResult(&w, result);
      return w.Take();
    }
    case net::Op::kRewrite: {
      net::RewriteRequest req;
      if (!net::DecodeRewriteRequest(&r, &req) || !r.AtEnd()) return malformed();
      return from_status(cqms->store()->RewriteQueryText(req.id, req.new_text));
    }
    case net::Op::kAnnotate: {
      net::AnnotateRequest req;
      if (!net::DecodeAnnotateRequest(&r, &req) || !r.AtEnd()) return malformed();
      return from_status(
          cqms->Annotate(req.id, req.author, req.text, req.fragment));
    }
    case net::Op::kSetVisibility: {
      net::SetVisibilityRequest req;
      if (!net::DecodeSetVisibilityRequest(&r, &req) || !r.AtEnd()) {
        return malformed();
      }
      return from_status(
          cqms->SetVisibility(req.requester, req.id, req.visibility));
    }
    case net::Op::kDelete: {
      net::DeleteRequest req;
      if (!net::DecodeDeleteRequest(&r, &req) || !r.AtEnd()) return malformed();
      return from_status(cqms->DeleteQuery(req.requester, req.id, req.is_admin));
    }
    case net::Op::kRegisterUser: {
      net::RegisterUserRequest req;
      if (!net::DecodeRegisterUserRequest(&r, &req) || !r.AtEnd()) {
        return malformed();
      }
      if (req.user.empty()) {
        return fail(Status::InvalidArgument("RegisterUser requires a user"));
      }
      cqms->RegisterUser(req.user, req.groups);
      return from_status(Status::Ok());
    }
    case net::Op::kBrowse: {
      net::BrowseRequest req;
      if (!net::DecodeBrowseRequest(&r, &req) || !r.AtEnd()) return malformed();
      net::TextResult text;
      text.text = cqms->BrowseLog(req.viewer, req.max_sessions);
      net::BeginResponse(&w, task.request_id, task.op);
      net::EncodeTextResult(&w, text);
      return w.Take();
    }
    case net::Op::kShowSession: {
      net::ShowSessionRequest req;
      if (!net::DecodeShowSessionRequest(&r, &req) || !r.AtEnd()) {
        return malformed();
      }
      Result<std::string> rendered = cqms->ShowSession(req.viewer, req.session_id);
      if (!rendered.ok()) return fail(rendered.status());
      net::TextResult text;
      text.text = *rendered;
      net::BeginResponse(&w, task.request_id, task.op);
      net::EncodeTextResult(&w, text);
      return w.Take();
    }
    case net::Op::kCheckpoint: {
      if (!r.AtEnd()) return malformed();
      return from_status(cqms->Checkpoint());
    }
    case net::Op::kMaintain: {
      net::MaintainRequest req;
      if (!net::DecodeMaintainRequest(&r, &req) || !r.AtEnd()) {
        return malformed();
      }
      cqms->RunMaintenance();
      if (req.run_mining) cqms->RunMining();
      return from_status(Status::Ok());
    }
    case net::Op::kReplSubscribe: {
      net::ReplSubscribeRequest req;
      if (!net::DecodeReplSubscribeRequest(&r, &req) || !r.AtEnd()) {
        return malformed();
      }
      if (shipper_ == nullptr) {
        return fail(Status::Unsupported(
            "replication requires durability on the primary "
            "(--durability-dir)"));
      }
      // Running on the writer thread, the store is quiescent: the
      // shipper can scan the WAL (or encode a snapshot) and register
      // the follower without a frame slipping in between. It streams
      // the subscribe response itself; the empty return tells
      // ExecuteTask not to send one.
      std::shared_ptr<Connection> conn = task.conn;
      uint64_t follower_id = shipper_->Subscribe(
          req, task.request_id,
          [this, conn](std::string payload) { SendPayload(conn, payload); });
      conn->repl_follower_id.store(follower_id, std::memory_order_relaxed);
      return std::string();
    }
    default:
      return fail(Status::Unsupported(std::string("op ") +
                                      net::OpName(task.op) +
                                      " is not servable"));
  }
}

std::string CqmsServer::HandleStats(const Task& task) {
  net::StatsResult stats = StatsSnapshot();
  BinaryWriter w;
  net::BeginResponse(&w, task.request_id, task.op);
  net::EncodeStatsResult(&w, stats);
  return w.Take();
}

std::string CqmsServer::HandleMetricsDump(const Task& task) {
  // Process-wide registry first (planner, storage, miner, WAL series),
  // then the server's own per-op counters appended in the same
  // exposition dialect so one dump covers every layer.
  std::string text = obs::MetricsRegistry::Global().ExpositionText();
  text += "cqms_server_uptime_micros ";
  text += std::to_string(static_cast<uint64_t>(NowMicros() - start_micros_));
  text += '\n';
  text += "cqms_server_connections_active ";
  text += std::to_string(active_conns_.load(std::memory_order_relaxed));
  text += '\n';
  text += "cqms_server_connections_total ";
  text += std::to_string(total_conns_.load(std::memory_order_relaxed));
  text += '\n';
  text += "cqms_server_connections_rejected_total ";
  text += std::to_string(rejected_conns_.load(std::memory_order_relaxed));
  text += '\n';
  text += "cqms_server_protocol_errors_total ";
  text += std::to_string(protocol_errors_.load(std::memory_order_relaxed));
  text += '\n';
  for (uint8_t op = net::kMinOp; op <= net::kMaxOp; ++op) {
    const OpCounters& c = op_counters_[op];
    uint64_t count = c.count.load(std::memory_order_relaxed);
    if (count == 0) continue;
    std::string lower = net::OpName(static_cast<net::Op>(op));
    for (char& ch : lower) ch = static_cast<char>(std::tolower(ch));
    text += "cqms_" + lower + "_total " + std::to_string(count) + '\n';
    text += "cqms_" + lower + "_errors_total " +
            std::to_string(c.errors.load(std::memory_order_relaxed)) + '\n';
    text += "cqms_" + lower + "_p99_micros " + std::to_string(c.Percentile(99)) +
            '\n';
  }

  net::TextResult result;
  result.text = std::move(text);
  BinaryWriter w;
  net::BeginResponse(&w, task.request_id, task.op);
  net::EncodeTextResult(&w, result);
  return w.Take();
}

net::StatsResult CqmsServer::StatsSnapshot() const {
  net::StatsResult out;
  out.server_version = kServerVersion;
  out.uptime_micros = static_cast<uint64_t>(NowMicros() - start_micros_);
  out.active_connections = active_conns_.load(std::memory_order_relaxed);
  out.total_connections = total_conns_.load(std::memory_order_relaxed);
  out.rejected_connections = rejected_conns_.load(std::memory_order_relaxed);
  out.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  std::shared_ptr<Cqms> cqms = current_cqms();
  std::shared_ptr<const storage::ReadViewState> view = cqms->CurrentReadView();
  out.store_size = view != nullptr ? view->size() : 0;
  out.published_sequence = cqms->store()->published_sequence();
  if (const storage::DurableStore* durable = cqms->durable()) {
    out.durable_read_only = durable->read_only();
    out.checkpoint_failure_streak = durable->checkpoint_failure_streak();
    out.checkpoints_backed_off = durable->checkpoints_backed_off();
  }
  if (view != nullptr) out.arena_garbage_bytes = view->scoring().arena_garbage();
  if (follower_mode()) {
    out.role = 2;
    out.primary_address = options_.follow_primary;
    if (follower_ != nullptr) {
      repl::Follower::Stats repl = follower_->GetStats();
      out.repl_connected = repl.connected;
      out.repl_applied_sequence = repl.applied_sequence;
      out.repl_primary_sequence = repl.primary_sequence;
    }
  } else {
    out.role = 1;
    if (shipper_ != nullptr) {
      repl::WalShipper::Stats repl = shipper_->GetStats();
      out.repl_followers = repl.followers;
      out.repl_min_acked_sequence = repl.min_acked_sequence;
      out.repl_backlog_bytes = cqms_->durable()->repl_backlog_bytes();
    }
  }
  for (uint8_t op = net::kMinOp; op <= net::kMaxOp; ++op) {
    const OpCounters& c = op_counters_[op];
    uint64_t count = c.count.load(std::memory_order_relaxed);
    if (count == 0) continue;
    net::OpStatsRow row;
    row.op = op;
    row.count = count;
    row.errors = c.errors.load(std::memory_order_relaxed);
    row.bytes_in = c.bytes_in.load(std::memory_order_relaxed);
    row.bytes_out = c.bytes_out.load(std::memory_order_relaxed);
    row.p50_micros = c.Percentile(50);
    row.p99_micros = c.Percentile(99);
    row.max_micros = c.max_micros();
    out.per_op.push_back(row);
  }
  return out;
}

OpCounters& CqmsServer::CountersFor(net::Op op) {
  return op_counters_[static_cast<uint8_t>(op)];
}

const OpCounters& CqmsServer::CountersFor(net::Op op) const {
  return op_counters_[static_cast<uint8_t>(op)];
}

}  // namespace cqms::server
