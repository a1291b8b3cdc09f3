#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "netclient/client.h"
#include "script.h"

namespace perfbench {

/// What the client saw for one op: when it went out, when its response
/// came back, and the decoded response (only the member matching the
/// op's kind is filled).
struct Outcome {
  int64_t sent_us = 0;
  int64_t done_us = 0;
  bool ok = false;
  std::string error;
  net::SearchResult search;
  net::RecommendResult recommend;
  net::AppendResult append;
};

/// One pipelined connection: buffer a request, push the buffered batch
/// down the socket, block for whichever response arrives next.
class Channel {
 public:
  virtual ~Channel() = default;
  /// Buffers `op`'s request; its response is decoded into `out`.
  /// `target` is the query an Annotate or SetVisibility acts on.
  virtual void Send(const Op& op, storage::QueryId target, Outcome* out) = 0;
  virtual bool Flush() = 0;
  /// Blocks for the next response to arrive, in whatever order the
  /// server answers, fills the outcome given with its request and
  /// returns it. Only called while a request is outstanding.
  virtual Outcome* Receive() = 0;
};

/// Channel over a netclient::CqmsClient. Search, Recommend and Append go
/// through the client's Send* calls; Annotate, SetVisibility and
/// Checkpoint, which it has no Send* for, are encoded with the net codecs
/// and sent with SendRawPayload. Responses are read in arrival order with
/// ReadRawPayload and decoded with the net codecs, so no response waits
/// behind a slower one.
/// `want_trace` asks the server for planner traces on searches;
/// `execute` is the Append mode.
class ClientChannel : public Channel {
 public:
  ClientChannel(cqms::netclient::CqmsClient* client, bool want_trace,
                bool execute)
      : client_(client), want_trace_(want_trace), execute_(execute) {}

  void Send(const Op& op, storage::QueryId target, Outcome* out) override;
  bool Flush() override { return client_->Flush().ok(); }
  Outcome* Receive() override;

 private:
  struct Pending {
    Kind kind;
    Outcome* out;
  };

  cqms::netclient::CqmsClient* client_;
  bool want_trace_;
  bool execute_;
  /// Outstanding requests by request id.
  std::map<uint64_t, Pending> pending_;
  /// Request ids of raw payloads, far above the client's own (which count
  /// up from 1).
  uint64_t next_raw_id_ = uint64_t{1} << 48;
};

/// Connects to the loopback daemon; exits the process on failure (the
/// benchmark cannot measure anything without its server).
std::unique_ptr<cqms::netclient::CqmsClient> ConnectOrDie(uint16_t port);

/// Open loop over one connection: sends every op at `start_us + due_us`
/// whether or not earlier responses have arrived, and stamps each
/// response as it arrives. While the thread blocks on a response, ops
/// falling due are sent as soon as it returns; their latency is charged
/// from the due time, so a stalled response shows in every request queued
/// behind it. `ops` must be in due order; `outs[i]` receives op i's
/// outcome.
void RunOpenLoop(Channel* channel, const std::vector<const Op*>& ops,
                 int64_t start_us, const std::vector<Outcome*>& outs);

/// Executes one op synchronously (closed loop). `target_id` is the
/// resolved query id for kAnnotate / kSetVisibility.
void CallOnce(cqms::netclient::CqmsClient* client, const Op& op,
              bool want_trace, bool execute, cqms::storage::QueryId target_id,
              Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
