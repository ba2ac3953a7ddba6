#include "service/remote_shard.h"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "core/checkpoint.h"
#include "service/wire.h"

namespace moqo {

namespace {

std::string TextOf(const std::vector<uint8_t>& body) {
  return std::string(body.begin(), body.end());
}

}  // namespace

RemoteShard::RemoteShard(RemoteShardConfig config, net::FrameChannel channel)
    : config_(std::move(config)), channel_(std::move(channel)) {
  if (config_.recv_poll_ms < 1) config_.recv_poll_ms = 1;
}

RemoteShard::~RemoteShard() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  // Shutdown, not Close: the receiver may be mid-Recv on this channel.
  channel_.Shutdown();
  if (receiver_.joinable()) receiver_.join();
  channel_.Close();
  // Anything still pending was neither finished, suspended away, nor
  // recovered as an orphan: its submitter is owed an explicit error, not
  // a broken promise.
  MutexLock lock(mu_);
  for (size_t i = 0; i < pending_.size(); ++i) {
    Pending& entry = pending_[i];
    if (entry.done || entry.migrated) continue;
    entry.migrated = true;
    entry.promise.set_exception(std::make_exception_ptr(std::runtime_error(
        "task lost with " + label_ + " (local index " + std::to_string(i) +
        "): shard destroyed with task in flight" +
        (death_reason_.empty() ? "" : " [" + death_reason_ + "]"))));
  }
}

void RemoteShard::set_death_callback(
    std::function<void(RemoteShard*)> callback) {
  MutexLock lock(mu_);
  death_callback_ = std::move(callback);
}

void RemoteShard::set_label(std::string label) {
  MutexLock lock(mu_);
  label_ = std::move(label);
}

std::string RemoteShard::label() const {
  MutexLock lock(mu_);
  return label_;
}

void RemoteShard::Start() {
  MutexLock lock(mu_);
  if (started_) return;
  started_ = true;
  receiver_ = std::thread([this] { ReceiverLoop(); });
}

void RemoteShard::MarkDead(const std::string& reason) {
  std::function<void(RemoteShard*)> callback;
  {
    MutexLock lock(mu_);
    if (dead_) return;
    dead_ = true;
    death_reason_ = reason;
    callback = death_callback_;
    cv_.NotifyAll();
  }
  if (callback) callback(this);
}

void RemoteShard::HandleMessage(MutexLock& lock, Message&& message) {
  auto find_pending = [&]() -> Pending* {
    auto it = index_by_request_.find(message.request_id);
    if (it == index_by_request_.end()) return nullptr;
    return &pending_[it->second];
  };
  switch (message.type) {
    case MsgType::kResult: {
      Pending* entry = find_pending();
      if (entry == nullptr || entry->done || entry->migrated) break;
      CheckpointReader reader(message.body, /*factory=*/nullptr);
      BatchTaskResult result;
      if (!DecodeTaskResult(&reader, &result) ||
          reader.position() != message.body.size()) {
        entry->done = true;
        entry->migrated = true;
        --open_;
        entry->promise.set_exception(
            std::make_exception_ptr(std::runtime_error(
                "undecodable result from " + label_ + " (request " +
                std::to_string(message.request_id) + ")")));
        break;
      }
      result.index = static_cast<int>(entry - pending_.data());
      entry->done = true;
      entry->result = result;
      --open_;
      entry->promise.set_value(std::move(result));
      break;
    }
    case MsgType::kTaskError: {
      Pending* entry = find_pending();
      if (entry == nullptr || entry->done || entry->migrated) break;
      entry->done = true;
      entry->result.index = static_cast<int>(entry - pending_.data());
      --open_;
      entry->promise.set_exception(std::make_exception_ptr(
          std::runtime_error(TextOf(message.body))));
      break;
    }
    case MsgType::kSnapshot: {
      Pending* entry = find_pending();
      if (entry == nullptr || entry->done || entry->migrated) break;
      entry->frame = std::move(message.body);
      ++snapshots_received_;
      break;
    }
    case MsgType::kSuspended: {
      Pending* entry = find_pending();
      if (entry == nullptr || entry->done || entry->migrated) break;
      WireTask wire;
      std::string why;
      if (!DecodeWireTask(message.body, &wire, &why)) {
        entry->done = true;
        entry->migrated = true;
        --open_;
        entry->promise.set_exception(
            std::make_exception_ptr(std::runtime_error(
                "undecodable suspended task from " + label_ + ": " + why)));
        if (message.request_id == suspend_request_) suspend_failed_ = true;
        break;
      }
      entry->migrated = true;
      --open_;
      if (message.request_id == suspend_request_) {
        suspend_result_ =
            SuspendedTask(std::move(wire), std::move(entry->promise));
        suspend_result_->origin = label_;
      } else {
        // A suspended task nobody is waiting for (stale rendezvous):
        // dropping the frame would strand the submitter, so fail loudly.
        entry->promise.set_exception(
            std::make_exception_ptr(std::runtime_error(
                "unrequested suspension from " + label_)));
      }
      break;
    }
    case MsgType::kSuspendFail:
      if (message.request_id == suspend_request_) suspend_failed_ = true;
      break;
    case MsgType::kReject: {
      Pending* entry = find_pending();
      if (entry == nullptr || entry->done || entry->migrated) break;
      entry->done = true;
      entry->migrated = true;
      entry->result.index = static_cast<int>(entry - pending_.data());
      --open_;
      entry->promise.set_exception(std::make_exception_ptr(
          std::runtime_error("task rejected by " + label_ + ": " +
                             TextOf(message.body))));
      break;
    }
    case MsgType::kBye:
      bye_received_ = true;
      break;
    case MsgType::kPing:
      break;
    default:
      // Router-to-shard request types have no business arriving here;
      // ignore rather than kill a healthy connection.
      break;
  }
  cv_.NotifyAll();
  (void)lock;
}

void RemoteShard::ReceiverLoop() {
  auto now_millis = [] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  };
  int64_t last_rx = now_millis();
  for (;;) {
    std::vector<uint8_t> payload;
    net::IoStatus status = channel_.Recv(&payload, config_.recv_poll_ms);
    {
      MutexLock lock(mu_);
      if (dead_) return;
      if (status == net::IoStatus::kOk) {
        last_rx = now_millis();
        Message message;
        std::string why;
        if (DecodeMessage(payload, &message, &why)) {
          HandleMessage(lock, std::move(message));
        }
        // An undecodable message over a CRC-clean channel is a peer bug;
        // tolerated — the silence timeout still guards a wedged peer.
        continue;
      }
      if (status == net::IoStatus::kTimeout) {
        if (config_.silence_timeout_ms > 0 && !stopping_ &&
            now_millis() - last_rx > config_.silence_timeout_ms) {
          lock.Unlock();
          MarkDead("silence timeout (" +
                   std::to_string(config_.silence_timeout_ms) + " ms)");
          return;
        }
        continue;
      }
      // kClosed / kError.
      if (stopping_ || bye_received_) {
        cv_.NotifyAll();
        return;
      }
    }
    MarkDead(status == net::IoStatus::kClosed
                 ? "connection closed by shard"
                 : "transport error: " + channel_.last_error());
    return;
  }
}

bool RemoteShard::SendRequest(uint8_t type, uint64_t request_id,
                              std::vector<uint8_t> body) {
  Message message;
  message.type = static_cast<MsgType>(type);
  message.request_id = request_id;
  message.body = std::move(body);
  MutexLock send_lock(send_mu_);
  return channel_.Send(EncodeMessage(message)) == net::IoStatus::kOk;
}

bool RemoteShard::SubmitFrame(std::vector<uint8_t> frame,
                              std::promise<BatchTaskResult>* promise) {
  uint64_t request_id;
  {
    MutexLock lock(mu_);
    if (dead_ || stopping_) return false;
    request_id = next_request_id_++;
  }
  // The promise is moved from only after the frame is on the wire, so a
  // refused send leaves the caller's task (and its reply channel) intact.
  if (!SendRequest(static_cast<uint8_t>(MsgType::kSubmit), request_id,
                   frame)) {
    return false;
  }
  MutexLock lock(mu_);
  Pending entry;
  entry.request_id = request_id;
  entry.promise = std::move(*promise);
  entry.frame = std::move(frame);
  index_by_request_[request_id] = pending_.size();
  pending_.push_back(std::move(entry));
  ++open_;
  return true;
}

std::optional<std::future<BatchTaskResult>> RemoteShard::Submit(
    const BatchTask& task) {
  {
    MutexLock lock(mu_);
    if (!started_ || dead_ || stopping_) return std::nullopt;
  }
  std::promise<BatchTaskResult> promise;
  std::future<BatchTaskResult> future = promise.get_future();
  if (!SubmitFrame(EncodeWireTask(MakeWireTask(task)), &promise)) {
    return std::nullopt;
  }
  return future;
}

bool RemoteShard::Resume(SuspendedTask& task) {
  {
    MutexLock lock(mu_);
    if (!started_ || dead_ || stopping_) return false;
  }
  std::vector<uint8_t> frame = EncodeWireTask(task.state);
  // SubmitFrame moves the promise only once the frame is sent, so a
  // refusal leaves `task` fully intact for a retry elsewhere.
  if (!SubmitFrame(std::move(frame), &task.promise)) return false;
  task.MarkConsumed();
  return true;
}

std::optional<SuspendedTask> RemoteShard::Suspend(size_t submission_index) {
  uint64_t request_id = 0;
  {
    MutexLock lock(mu_);
    if (!started_ || dead_ || stopping_) return std::nullopt;
    if (submission_index >= pending_.size()) return std::nullopt;
    Pending& entry = pending_[submission_index];
    if (entry.done || entry.migrated) return std::nullopt;
    request_id = entry.request_id;
    suspend_request_ = request_id;
    suspend_result_.reset();
    suspend_failed_ = false;
  }
  if (!SendRequest(static_cast<uint8_t>(MsgType::kSuspend), request_id,
                   {})) {
    MutexLock lock(mu_);
    suspend_request_ = 0;
    return std::nullopt;
  }
  MutexLock lock(mu_);
  cv_.WaitFor(lock, std::chrono::milliseconds(config_.op_timeout_ms),
              [this]() REQUIRES(mu_) {
                return suspend_result_.has_value() || suspend_failed_ ||
                       dead_;
              });
  suspend_request_ = 0;
  if (!suspend_result_.has_value()) return std::nullopt;
  std::optional<SuspendedTask> result = std::move(suspend_result_);
  suspend_result_.reset();
  return result;
}

void RemoteShard::Drain() {
  MutexLock lock(mu_);
  cv_.Wait(lock, [this]() REQUIRES(mu_) { return open_ == 0 || dead_; });
}

BatchReport RemoteShard::Stop() {
  bool send_shutdown = false;
  {
    MutexLock lock(mu_);
    if (!stopping_) {
      stopping_ = true;
      send_shutdown = started_ && !dead_;
    }
  }
  if (send_shutdown) {
    if (SendRequest(static_cast<uint8_t>(MsgType::kShutdown), 0, {})) {
      MutexLock lock(mu_);
      cv_.WaitFor(lock, std::chrono::milliseconds(config_.op_timeout_ms),
                  [this]() REQUIRES(mu_) {
                    return (bye_received_ && open_ == 0) || dead_;
                  });
    }
  }
  // Shutdown, not Close: the receiver may be mid-Recv on this channel.
  channel_.Shutdown();
  if (receiver_.joinable()) receiver_.join();
  channel_.Close();

  MutexLock lock(mu_);
  BatchReport report;
  report.tasks.reserve(pending_.size());
  for (size_t i = 0; i < pending_.size(); ++i) {
    Pending& entry = pending_[i];
    if (entry.done && !entry.migrated) {
      report.tasks.push_back(entry.result);
      continue;
    }
    if (!entry.done && !entry.migrated) {
      // Defensive: a live task at Stop() means the shutdown handshake was
      // cut short (dead connection without a failover). Its submitter gets
      // an explicit error; the report keeps a migrated stub so indexes
      // stay aligned.
      entry.migrated = true;
      entry.promise.set_exception(std::make_exception_ptr(
          std::runtime_error("task lost with " + label_ +
                             " (local index " + std::to_string(i) + ")" +
                             (death_reason_.empty()
                                  ? ""
                                  : " [" + death_reason_ + "]"))));
    }
    BatchTaskResult stub;
    stub.index = static_cast<int>(i);
    stub.migrated = true;
    report.tasks.push_back(std::move(stub));
  }
  report.num_threads = 1;
  report.Aggregate();
  return report;
}

size_t RemoteShard::submitted_count() const {
  MutexLock lock(mu_);
  return pending_.size();
}

bool RemoteShard::alive() const {
  MutexLock lock(mu_);
  return !dead_;
}

std::vector<OrphanTask> RemoteShard::TakeOrphans() {
  MutexLock lock(mu_);
  std::vector<OrphanTask> orphans;
  if (!dead_) return orphans;
  for (size_t i = 0; i < pending_.size(); ++i) {
    Pending& entry = pending_[i];
    if (entry.done || entry.migrated) continue;
    OrphanTask orphan;
    orphan.local_index = i;
    orphan.request_id = entry.request_id;
    orphan.frame = std::move(entry.frame);
    orphan.promise = std::move(entry.promise);
    orphans.push_back(std::move(orphan));
    entry.migrated = true;
    --open_;
  }
  cv_.NotifyAll();
  return orphans;
}

size_t RemoteShard::snapshots_received() const {
  MutexLock lock(mu_);
  return snapshots_received_;
}

std::string RemoteShard::death_reason() const {
  MutexLock lock(mu_);
  return death_reason_;
}

}  // namespace moqo
