#include "dist/rfork.hpp"

#include <cmath>

#include "util/check.hpp"

namespace mw {

RforkResult RemoteForker::full_copy(const AddressSpace& src) const {
  RforkResult r;
  const CheckpointImage img = take_checkpoint(src, Registers{});
  r.pages_shipped = img.resident_pages;
  r.bytes_shipped = img.size_bytes();

  const auto pages = static_cast<VDuration>(img.resident_pages);
  r.checkpoint_cost = cost_.checkpoint_base + cost_.checkpoint_per_page * pages;
  // NFS protocol: image to the file server, exec request to the remote
  // host, image from the file server to the remote host.
  r.transfer_cost = link_.transfer_time(img.size_bytes())   // write to NFS
                    + link_.transfer_time(128)              // exec request
                    + link_.transfer_time(img.size_bytes());  // remote read
  r.restore_cost = cost_.restore_base + cost_.restore_per_page * pages;

  r.start_elapsed = r.checkpoint_cost + r.transfer_cost + r.restore_cost;
  r.total_elapsed = r.start_elapsed;
  return r;
}

RforkResult RemoteForker::on_demand(const AddressSpace& src,
                                    double touch_fraction) const {
  MW_CHECK(touch_fraction >= 0.0 && touch_fraction <= 1.0);
  RforkResult r;
  const PageTable& table = src.table();
  std::size_t resident = table.resident_pages();

  // Ship only the control block and the page map.
  const std::size_t map_bytes = 256 + table.num_pages() * 8;
  r.bytes_shipped = map_bytes;
  r.transfer_cost = link_.transfer_time(map_bytes) + link_.transfer_time(128);
  r.restore_cost = cost_.restore_base;
  r.start_elapsed = r.transfer_cost + r.restore_cost;

  // Expected run-time faulting: each touched page is one request/response
  // round trip plus a page-sized transfer plus service time.
  const auto touched = static_cast<std::size_t>(
      std::llround(touch_fraction * static_cast<double>(resident)));
  r.pages_shipped = touched;
  const VDuration per_fault = link_.transfer_time(64)  // request
                              + link_.transfer_time(table.page_size())
                              + cost_.remote_fault_service;
  r.fault_cost = per_fault * static_cast<VDuration>(touched);
  r.bytes_shipped += touched * table.page_size();
  r.total_elapsed = r.start_elapsed + r.fault_cost;
  return r;
}

}  // namespace mw
