#include "comm/process_group.h"

#include <cstring>

namespace neo::comm {

RankFailure::RankFailure(int failed_rank, std::string cause, bool transient)
    : std::runtime_error("rank " + std::to_string(failed_rank) +
                         " failed: " + cause),
      failed_rank_(failed_rank), cause_(std::move(cause)),
      transient_(transient)
{
}

const char*
CollectiveOpName(CollectiveOp op)
{
    switch (op) {
      case CollectiveOp::kAllReduce: return "allreduce";
      case CollectiveOp::kAllGather: return "allgather";
      case CollectiveOp::kReduceScatter: return "reducescatter";
      case CollectiveOp::kAllToAll: return "alltoall";
      case CollectiveOp::kBroadcast: return "broadcast";
      case CollectiveOp::kBarrier: return "barrier";
    }
    return "unknown";
}

namespace {

template <typename T>
void
TypedAllToAll(ProcessGroup& pg, const std::vector<std::vector<T>>& send,
              std::vector<std::vector<T>>& recv)
{
    // Empty vectors may have null data(), and memcpy with a null pointer
    // is undefined even for zero bytes, so empty payloads skip the copy.
    std::vector<std::vector<uint8_t>> send_bytes(send.size());
    for (size_t r = 0; r < send.size(); r++) {
        send_bytes[r].resize(send[r].size() * sizeof(T));
        if (!send_bytes[r].empty()) {
            std::memcpy(send_bytes[r].data(), send[r].data(),
                        send_bytes[r].size());
        }
    }
    std::vector<std::vector<uint8_t>> recv_bytes;
    pg.AllToAllBytes(send_bytes, recv_bytes);
    recv.resize(recv_bytes.size());
    for (size_t r = 0; r < recv_bytes.size(); r++) {
        recv[r].resize(recv_bytes[r].size() / sizeof(T));
        if (!recv[r].empty()) {
            std::memcpy(recv[r].data(), recv_bytes[r].data(),
                        recv[r].size() * sizeof(T));
        }
    }
}

}  // namespace

void
ProcessGroup::AllToAllFloats(const std::vector<std::vector<float>>& send,
                             std::vector<std::vector<float>>& recv)
{
    TypedAllToAll(*this, send, recv);
}

void
ProcessGroup::AllToAllIndices(const std::vector<std::vector<int64_t>>& send,
                              std::vector<std::vector<int64_t>>& recv)
{
    TypedAllToAll(*this, send, recv);
}

void
ProcessGroup::AllToAllLengths(const std::vector<std::vector<uint32_t>>& send,
                              std::vector<std::vector<uint32_t>>& recv)
{
    TypedAllToAll(*this, send, recv);
}

}  // namespace neo::comm
