#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "serve/dispatch.h"
#include "serve/wire.h"

namespace dbs::serve {
namespace {

[[nodiscard]] Status SocketError(const char* what) {
  return Status::IoError(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

Result<std::unique_ptr<Server>> Server::Start(ModelService* service,
                                              const ServerOptions& options) {
  if (service == nullptr) {
    return Status::InvalidArgument("server requires a service");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return SocketError("socket");

  int reuse = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options.port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return SocketError("bind");
  }
  if (::listen(fd, std::max(options.backlog, 1)) != 0) {
    ::close(fd);
    return SocketError("listen");
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    ::close(fd);
    return SocketError("getsockname");
  }

  std::unique_ptr<Server> server(
      new Server(  // dbs-lint: allow(raw-alloc): private ctor
          service, fd, ntohs(addr.sin_port), options));
  if (options.enable_shm) {
    server->drain_ = std::make_unique<ShmServerDrain>(
        service, [raw = server.get()] { raw->RequestShutdown(); },
        ShmServerDrain::Options{});
  }
  server->acceptor_ = std::thread([raw = server.get()] { raw->AcceptLoop(); });
  return server;
}

Server::Server(ModelService* service, int listen_fd, uint16_t port,
               const ServerOptions& options)
    : service_(service),
      listen_fd_(listen_fd),
      port_(port),
      options_(options) {}

Server::~Server() { Stop(); }

void Server::AcceptLoop() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // Listener was shut down (Stop) or broke; either way we are done.
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      ::close(fd);
      return;
    }
    connection_fds_.push_back(fd);
    connection_threads_.emplace_back([this, fd] { HandleConnection(fd); });
  }
}

void Server::HandleConnection(int fd) {
  for (;;) {
    auto frame = ReadFrame(fd);
    if (!frame.ok()) break;  // Peer closed, malformed framing or Stop().
    if (!ServeOne(fd, *frame)) break;
  }
  // Unlink before closing so Stop never touches a recycled descriptor.
  bool attached = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    connection_fds_.erase(
        std::remove(connection_fds_.begin(), connection_fds_.end(), fd),
        connection_fds_.end());
    auto it = std::find(shm_fds_.begin(), shm_fds_.end(), fd);
    if (it != shm_fds_.end()) {
      shm_fds_.erase(it);
      attached = true;
    }
  }
  // The control connection is the shm session's lifetime anchor: its close
  // releases the mapping.
  if (attached && drain_ != nullptr) drain_->Detach(fd);
  ::close(fd);
}

Status Server::AttachShm(int fd, const Frame& frame) {
  DBS_ASSIGN_OR_RETURN(ShmAttachRequest request,
                       DecodeShmAttachRequest(frame.payload));
  if (drain_ == nullptr) {
    return Status::FailedPrecondition(
        "shm transport disabled on this daemon (transport=tcp)");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (std::find(shm_fds_.begin(), shm_fds_.end(), fd) != shm_fds_.end()) {
      return Status::FailedPrecondition(
          "connection already has an shm session attached");
    }
  }
  DBS_ASSIGN_OR_RETURN(std::unique_ptr<ShmSession> session,
                       ShmSession::Open(request.name));
  if (session->ring_bytes() != request.ring_bytes) {
    return Status::InvalidArgument(
        "shm region ring capacity disagrees with the attach request");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    shm_fds_.push_back(fd);
  }
  drain_->Attach(fd, std::move(session));
  return Status::Ok();
}

bool Server::ServeOne(int fd, const Frame& frame) {
  // The attach handshake is transport plumbing for THIS connection, so it
  // is handled here rather than in the transport-agnostic dispatch. Attach
  // failures keep the connection open: the client falls back to TCP on it.
  if (frame.type == MessageType::kShmAttachRequest) {
    Status status = AttachShm(fd, frame);
    if (!status.ok()) {
      return WriteFrame(fd, MessageType::kErrorResponse,
                        EncodeErrorResponse(status))
          .ok();
    }
    return WriteFrame(fd, MessageType::kOkResponse, {}).ok();
  }

  DispatchResult result = DispatchFrame(service_, frame);
  bool write_ok =
      WriteFrame(fd, result.response.type, result.response.payload).ok();
  if (result.shutdown) RequestShutdown();
  return write_ok && !result.close;
}

void Server::RequestShutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

void Server::WaitForShutdown() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_cv_.wait(lock,
                    [this] { return shutdown_requested_ || stopping_; });
}

void Server::Stop() {
  std::vector<std::thread> to_join;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stopping_) {
      stopping_ = true;
      // Wake the blocked accept and every blocked connection read.
      ::shutdown(listen_fd_, SHUT_RDWR);
      for (int fd : connection_fds_) ::shutdown(fd, SHUT_RDWR);
    }
  }
  shutdown_cv_.notify_all();
  if (acceptor_.joinable()) acceptor_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    to_join.swap(connection_threads_);
  }
  for (std::thread& t : to_join) {
    if (t.joinable()) t.join();
  }
  // Connection threads detach their sessions on exit; stopping the drain
  // afterwards releases anything that never detached.
  if (drain_ != nullptr) drain_->Stop();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

}  // namespace dbs::serve
