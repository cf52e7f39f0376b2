#include "core/parallel.h"

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "core/env.h"

namespace tokyonet::core {
namespace {

/// Set while a thread is executing batch iterations, so nested
/// parallel_for calls from inside a body run serially instead of
/// waiting on the pool they are part of.
thread_local bool t_inside_batch = false;

[[nodiscard]] int env_thread_count() noexcept {
  long n = env_integer("TOKYONET_THREADS", 1, 4096, 0);
  if (n < 1) {
    n = static_cast<long>(std::thread::hardware_concurrency());
  }
  return n < 1 ? 1 : static_cast<int>(n);
}

std::atomic<int> g_thread_override{0};

}  // namespace

int thread_count() noexcept {
  const int override = g_thread_override.load(std::memory_order_relaxed);
  if (override >= 1) return override;
  static const int from_env = env_thread_count();
  return from_env;
}

void set_thread_count(int n) noexcept {
  g_thread_override.store(n < 1 ? 0 : n, std::memory_order_relaxed);
}

struct ThreadPool::Impl {
  /// One parallel_for invocation: indices are claimed with fetch_add
  /// and completion is tracked per item, so late-waking workers that
  /// find the range exhausted simply go back to sleep.
  struct Batch {
    const std::function<void(std::size_t)>* body = nullptr;
    std::size_t n = 0;
    int max_workers = 0;  // workers beyond this skip the batch
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<int> tickets{0};
    std::exception_ptr error;
    std::mutex error_mu;

    void run_one(std::size_t i) {
      try {
        (*body)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(error_mu);
        if (!error) error = std::current_exception();
      }
    }
  };

  explicit Impl(int threads) : size(threads < 1 ? 1 : threads) {
    workers.reserve(static_cast<std::size_t>(size - 1));
    for (int i = 0; i + 1 < size; ++i) {
      workers.emplace_back([this] { worker_loop(); });
    }
  }

  ~Impl() {
    {
      std::lock_guard<std::mutex> lk(mu);
      stop = true;
    }
    work_cv.notify_all();
    for (std::thread& t : workers) t.join();
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Batch> batch;
      {
        std::unique_lock<std::mutex> lk(mu);
        work_cv.wait(lk, [&] { return stop || generation != seen; });
        if (stop) return;
        seen = generation;
        batch = current;
      }
      if (!batch) continue;
      // Cap participation so for_each can use fewer threads than the
      // pool holds without resizing it.
      if (batch->tickets.fetch_add(1, std::memory_order_relaxed) >=
          batch->max_workers) {
        continue;
      }
      t_inside_batch = true;
      drain(*batch);
      t_inside_batch = false;
    }
  }

  void drain(Batch& batch) {
    for (;;) {
      const std::size_t i =
          batch.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= batch.n) break;
      batch.run_one(i);
      if (batch.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          batch.n) {
        std::lock_guard<std::mutex> lk(done_mu);
        done_cv.notify_all();
      }
    }
  }

  void for_each(std::size_t n, int max_threads,
                const std::function<void(std::size_t)>& body) {
    if (n == 0) return;
    if (max_threads > size) max_threads = size;
    if (n == 1 || max_threads <= 1 || t_inside_batch) {
      for (std::size_t i = 0; i < n; ++i) body(i);
      return;
    }

    // One batch at a time; concurrent submitters queue here.
    std::lock_guard<std::mutex> submit_lk(submit_mu);
    auto batch = std::make_shared<Batch>();
    batch->body = &body;
    batch->n = n;
    batch->max_workers = max_threads - 1;  // submitter takes one slot
    {
      std::lock_guard<std::mutex> lk(mu);
      current = batch;
      ++generation;
    }
    work_cv.notify_all();

    t_inside_batch = true;
    drain(*batch);
    t_inside_batch = false;

    {
      std::unique_lock<std::mutex> lk(done_mu);
      done_cv.wait(lk, [&] {
        return batch->done.load(std::memory_order_acquire) == batch->n;
      });
    }
    {
      std::lock_guard<std::mutex> lk(mu);
      current.reset();
    }
    if (batch->error) std::rethrow_exception(batch->error);
  }

  int size;
  std::vector<std::thread> workers;

  std::mutex submit_mu;  // serializes for_each invocations
  std::mutex mu;         // guards current/generation/stop
  std::condition_variable work_cv;
  std::shared_ptr<Batch> current;
  std::uint64_t generation = 0;
  bool stop = false;

  std::mutex done_mu;
  std::condition_variable done_cv;
};

ThreadPool::ThreadPool(int threads) : impl_(new Impl(threads)) {}

ThreadPool::~ThreadPool() { delete impl_; }

int ThreadPool::size() const noexcept { return impl_->size; }

void ThreadPool::for_each(std::size_t n, int max_threads,
                          const std::function<void(std::size_t)>& body) {
  impl_->for_each(n, max_threads, body);
}

ThreadPool& ThreadPool::global(int min_size) {
  static std::mutex g_mu;
  static std::unique_ptr<ThreadPool> g_pool;
  std::lock_guard<std::mutex> lk(g_mu);
  if (!g_pool || g_pool->size() < min_size) {
    // Safe to replace: for_each holds no reference to the pool across
    // calls and global() is never invoked while a batch is running on
    // the pool being replaced (submissions come through parallel_for,
    // which resolves the pool before submitting).
    g_pool = std::make_unique<ThreadPool>(min_size);
  }
  return *g_pool;
}

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  const int threads = thread_count();
  if (threads <= 1 || n <= 1 || t_inside_batch) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  ThreadPool::global(threads).for_each(n, threads, body);
}

}  // namespace tokyonet::core
