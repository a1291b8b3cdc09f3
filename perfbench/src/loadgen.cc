#include "loadgen.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/binary_codec.h"
#include "stats.h"

namespace perfbench {

namespace {

template <typename T>
void Fill(cqms::Result<T> r, T* dst, Outcome* out) {
  out->ok = r.ok();
  if (r.ok()) {
    *dst = std::move(r).value();
  } else {
    out->error = r.status().ToString();
  }
}

void FillStatus(const cqms::Status& s, Outcome* out) {
  out->ok = s.ok();
  if (!s.ok()) out->error = s.ToString();
}

net::Op WireOp(Kind kind) {
  switch (kind) {
    case Kind::kSearch:
      return net::Op::kSearch;
    case Kind::kRecommend:
      return net::Op::kRecommend;
    case Kind::kAppend:
      return net::Op::kAppend;
    case Kind::kAnnotate:
      return net::Op::kAnnotate;
    case Kind::kSetVisibility:
      return net::Op::kSetVisibility;
    case Kind::kCheckpoint:
      return net::Op::kCheckpoint;
  }
  std::abort();
}

}  // namespace

void ClientChannel::Send(const Op& op, storage::QueryId target,
                         Outcome* out) {
  uint64_t id = 0;
  cqms::BinaryWriter raw;
  switch (op.kind) {
    case Kind::kSearch: {
      net::SearchSpec spec = op.spec;
      spec.want_trace = want_trace_;
      id = client_->SendSearch(op.user, spec);
      break;
    }
    case Kind::kRecommend:
      id = client_->SendRecommend(op.user, op.text, 5);
      break;
    case Kind::kAppend: {
      net::AppendRequest req;
      req.user = op.user;
      req.sql = op.text;
      req.execute = execute_;
      id = client_->SendAppend(req);
      break;
    }
    case Kind::kAnnotate: {
      id = next_raw_id_++;
      net::AnnotateRequest req;
      req.id = target;
      req.author = op.user;
      req.text = op.text;
      net::BeginRequest(&raw, id, WireOp(op.kind));
      net::EncodeAnnotateRequest(&raw, req);
      break;
    }
    case Kind::kSetVisibility: {
      id = next_raw_id_++;
      net::SetVisibilityRequest req;
      req.requester = op.user;
      req.id = target;
      req.visibility = op.visibility;
      net::BeginRequest(&raw, id, WireOp(op.kind));
      net::EncodeSetVisibilityRequest(&raw, req);
      break;
    }
    case Kind::kCheckpoint:
      id = next_raw_id_++;
      net::BeginRequest(&raw, id, WireOp(op.kind));
      break;
  }
  // SendRawPayload writes the buffered requests too, in order; a write
  // error is sticky and fails the reads that follow.
  if (!raw.data().empty()) client_->SendRawPayload(raw.data());
  pending_[id] = {op.kind, out};
}

Outcome* ClientChannel::Receive() {
  cqms::Result<std::string> payload = client_->ReadRawPayload();
  net::ResponseEnvelope env;
  if (!payload.ok() || !net::DecodeResponseEnvelope(*payload, &env) ||
      pending_.count(env.request_id) == 0) {
    // The response stream is unusable (a broken link fails every later
    // read at once): charge the oldest outstanding request.
    const auto oldest = pending_.begin();
    Outcome* out = oldest->second.out;
    pending_.erase(oldest);
    out->ok = false;
    out->error = payload.ok() ? "malformed or unexpected response"
                              : payload.status().ToString();
    return out;
  }
  const auto it = pending_.find(env.request_id);
  const Kind kind = it->second.kind;
  Outcome* out = it->second.out;
  pending_.erase(it);
  if (!env.ok()) {
    out->ok = false;
    out->error = env.ToStatus().ToString();
    return out;
  }
  cqms::BinaryReader r(env.body);
  bool decoded = env.op == WireOp(kind);
  switch (kind) {
    case Kind::kSearch:
      decoded = decoded && net::DecodeSearchResult(&r, &out->search);
      break;
    case Kind::kRecommend:
      decoded = decoded && net::DecodeRecommendResult(&r, &out->recommend);
      break;
    case Kind::kAppend:
      decoded = decoded && net::DecodeAppendResult(&r, &out->append);
      break;
    default:  // An OK status is the whole answer.
      break;
  }
  out->ok = decoded && r.AtEnd();
  if (!out->ok) out->error = "malformed response body";
  return out;
}

std::unique_ptr<cqms::netclient::CqmsClient> ConnectOrDie(uint16_t port) {
  cqms::netclient::ClientOptions options;
  options.client_name = "perfbench";
  auto r = cqms::netclient::CqmsClient::Connect("127.0.0.1", port, options);
  if (!r.ok()) {
    std::fprintf(stderr, "connect: %s\n", r.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(r).value();
}

void RunOpenLoop(Channel* channel, const std::vector<const Op*>& ops,
                 int64_t start_us, const std::vector<Outcome*>& outs) {
  const size_t n = ops.size();
  size_t next = 0;         // First op not yet sent.
  size_t outstanding = 0;  // Sent ops whose response has not arrived.
  while (next < n || outstanding > 0) {
    const int64_t now = NowMicros();
    bool sent = false;
    while (next < n && start_us + ops[next]->due_us <= now) {
      channel->Send(*ops[next], storage::kInvalidQueryId, outs[next]);
      outs[next]->sent_us = now;
      ++next;
      ++outstanding;
      sent = true;
    }
    // A failed flush means a dead link: the receives below then fail
    // fast with the client's sticky transport error and count as failed.
    if (sent) channel->Flush();
    if (outstanding > 0) {
      Outcome* out = channel->Receive();
      out->done_us = NowMicros();
      --outstanding;
    } else if (next < n) {
      const int64_t due = start_us + ops[next]->due_us;
      std::this_thread::sleep_for(std::chrono::microseconds(due - NowMicros()));
    }
  }
}

void CallOnce(cqms::netclient::CqmsClient* client, const Op& op,
              bool want_trace, bool execute, cqms::storage::QueryId target_id,
              Outcome* out) {
  out->sent_us = NowMicros();
  switch (op.kind) {
    case Kind::kSearch: {
      net::SearchSpec spec = op.spec;
      spec.want_trace = want_trace;
      Fill(client->Search(op.user, spec), &out->search, out);
      break;
    }
    case Kind::kRecommend:
      Fill(client->Recommend(op.user, op.text, 5), &out->recommend, out);
      break;
    case Kind::kAppend: {
      net::AppendRequest req;
      req.user = op.user;
      req.sql = op.text;
      req.execute = execute;
      Fill(client->Append(req), &out->append, out);
      break;
    }
    case Kind::kAnnotate:
      FillStatus(client->Annotate(target_id, op.user, op.text), out);
      break;
    case Kind::kSetVisibility:
      FillStatus(client->SetVisibility(op.user, target_id, op.visibility), out);
      break;
    case Kind::kCheckpoint:
      FillStatus(client->Checkpoint(), out);
      break;
  }
  out->done_us = NowMicros();
}

}  // namespace perfbench
