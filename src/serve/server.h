// Serving daemon front end: loopback TCP plus the shared-memory transport.
//
// One acceptor thread plus one thread per connection: each client issues
// blocking request/response exchanges over its own socket, so N clients put
// N requests in flight and the BatchExecutor multiplexes the actual work.
// The server owns no models and no policy — every decoded request is handed
// to the shared ModelService via DispatchFrame, which is what keeps served
// answers identical to in-process library calls.
//
// Colocated clients can upgrade a connection to the shared-memory transport
// (DESIGN.md §13): a kShmAttachRequest names a client-created region holding
// an SPSC ring pair, the server maps it and the drain thread takes over that
// client's request stream — the TCP connection stays open only as the
// session's lifetime anchor. Responses are produced by the same dispatch
// path and codec either way, so they are bitwise identical across
// transports.
//
// Lifecycle: Start binds 127.0.0.1 (port 0 picks an ephemeral port,
// reported by port()); Stop() — also run by the destructor — closes the
// listener and all connection sockets, stops the shm drain, then joins
// every thread. A client can end the daemon remotely with a shutdown frame
// over either transport; WaitForShutdown blocks until that frame arrives
// (or Stop is called), which is how dbsd sleeps.

#ifndef DBS_SERVE_SERVER_H_
#define DBS_SERVE_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/service.h"
#include "serve/shm_transport.h"
#include "serve/wire.h"
#include "util/status.h"

namespace dbs::serve {

struct ServerOptions {
  // 0 = pick an ephemeral port.
  uint16_t port = 0;
  // Listen backlog.
  int backlog = 64;
  // Accept kShmAttachRequest upgrades. Off = attach requests are answered
  // with kFailedPrecondition and clients fall back to TCP.
  bool enable_shm = true;
};

class Server {
 public:
  // Binds and starts accepting. `service` is not owned and must outlive
  // the server.
  [[nodiscard]] static Result<std::unique_ptr<Server>> Start(ModelService* service,
                                               const ServerOptions& options);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // The bound port (the actual one when options.port was 0).
  uint16_t port() const { return port_; }

  // Blocks until a client sends a shutdown frame or Stop() runs.
  void WaitForShutdown();

  // Stops accepting, closes all connections, joins all threads. Idempotent.
  void Stop();

 private:
  Server(ModelService* service, int listen_fd, uint16_t port,
         const ServerOptions& options);

  void AcceptLoop();
  void HandleConnection(int fd);
  // Decodes and executes one request frame; returns false when the
  // connection should close (peer gone, framing violation or shutdown).
  bool ServeOne(int fd, const Frame& frame);
  // Handles the shm upgrade handshake for connection `fd`.
  [[nodiscard]] Status AttachShm(int fd, const Frame& frame);
  void RequestShutdown();

  ModelService* service_;
  int listen_fd_;
  uint16_t port_;
  ServerOptions options_;

  // Drain thread for attached shm sessions; null when enable_shm is off.
  std::unique_ptr<ShmServerDrain> drain_;

  std::thread acceptor_;

  // Guards the shutdown flags and fd lists below. Ordered after nothing:
  // handlers never call back into Server while holding their own locks,
  // and mu_ is released before closing fds or joining threads.
  std::mutex mu_;
  std::condition_variable shutdown_cv_;
  bool stopping_ = false;
  bool shutdown_requested_ = false;
  std::vector<int> connection_fds_;
  // Connections that upgraded to shm (keyed by fd), detached on close.
  std::vector<int> shm_fds_;
  std::vector<std::thread> connection_threads_;
};

}  // namespace dbs::serve

#endif  // DBS_SERVE_SERVER_H_
