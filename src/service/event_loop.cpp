#include "service/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace paramount::service {

EventLoop::EventLoop() {
  epoll_ = UniqueFd(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_.valid()) {
    error_ = std::string("epoll_create1: ") + std::strerror(errno);
    return;
  }
  wake_ = UniqueFd(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
  if (!wake_.valid()) {
    error_ = std::string("eventfd: ") + std::strerror(errno);
    return;
  }
  // The wake fd is its own handler-table entry so run() can treat every
  // ready fd uniformly.
  add(wake_.get(), kReadable, [this](std::uint32_t) {
    drain_wake_and_run_posted();
  });
}

EventLoop::~EventLoop() = default;

std::uint32_t EventLoop::to_epoll(std::uint32_t interest) {
  std::uint32_t events = 0;
  if (interest & kReadable) events |= EPOLLIN;
  if (interest & kWritable) events |= EPOLLOUT;
  return events;
}

bool EventLoop::add(int fd, std::uint32_t interest, Handler handler) {
  struct epoll_event ev = {};
  ev.events = to_epoll(interest);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &ev) != 0) return false;
  handlers_[fd] = std::move(handler);
  return true;
}

bool EventLoop::modify(int fd, std::uint32_t interest) {
  struct epoll_event ev = {};
  ev.events = to_epoll(interest);
  ev.data.fd = fd;
  return ::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, fd, &ev) == 0;
}

void EventLoop::remove(int fd) {
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(fd);
}

void EventLoop::post(std::function<void()> task) {
  {
    MutexLock lock(post_mutex_);
    posted_.push_back(std::move(task));
  }
  const std::uint64_t one = 1;
  // A full eventfd counter (EAGAIN) still leaves it readable — the wake
  // already happened, so the write result is ignorable either way.
  [[maybe_unused]] const auto n = ::write(wake_.get(), &one, sizeof(one));
}

void EventLoop::drain_wake_and_run_posted() {
  std::uint64_t counter = 0;
  while (::read(wake_.get(), &counter, sizeof(counter)) > 0) {
  }
  std::vector<std::function<void()>> tasks;
  {
    MutexLock lock(post_mutex_);
    tasks.swap(posted_);
  }
  for (std::function<void()>& task : tasks) task();
}

void EventLoop::run() {
  constexpr int kBatch = 64;
  struct epoll_event events[kBatch];
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_.get(), events, kBatch, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // epoll fd itself broke; nothing sane to do but exit
    }
    ++wakes_;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      // A handler earlier in this batch may have removed this fd (and its
      // descriptor may even be closed already): consult the table fresh.
      const auto it = handlers_.find(fd);
      if (it == handlers_.end()) continue;
      std::uint32_t ready = 0;
      if (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
        ready |= kReadable;
      }
      if (events[i].events & (EPOLLERR | EPOLLHUP)) ready |= kHangup;
      if (events[i].events & EPOLLOUT) ready |= kWritable;
      // The handler may remove itself (erasing the table entry destroys
      // the std::function): invoke a copy, never through the iterator.
      const Handler handler = it->second;
      handler(ready);
    }
  }
}

void EventLoop::stop() {
  stopping_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto n = ::write(wake_.get(), &one, sizeof(one));
}

}  // namespace paramount::service
