#include "dram/address.hpp"

#include "common/error.hpp"

namespace monde::dram {
namespace {

int log2_exact(int v) {
  int bits = 0;
  while ((1 << bits) < v) ++bits;
  MONDE_REQUIRE((1 << bits) == v, "dimension must be a power of two");
  return bits;
}

}  // namespace

AddressMapper::AddressMapper(const Spec& spec) {
  spec.validate();
  const Organization& org = spec.org;
  offset_bits_ = log2_exact(org.access_bytes);
  // Fields from the LSB up, each starting where the previous one ends.
  int shift = offset_bits_;
  auto field = [&shift](int size) {
    const int bits = log2_exact(size);
    const Field f{shift, (std::uint64_t{1} << bits) - 1};
    shift += bits;
    return f;
  };
  channel_ = field(org.channels);
  column_ = field(org.columns);
  rank_ = field(org.ranks);
  bankgroup_ = field(org.bankgroups);
  bank_ = field(org.banks_per_group);
  row_ = field(org.rows);
  capacity_ = org.total_capacity().count();
}

Address AddressMapper::decompose(std::uint64_t addr) const {
  MONDE_REQUIRE(addr < capacity_, "address 0x" << std::hex << addr << " beyond device capacity");
  Address a;
  a.channel = channel_.get(addr);
  a.column = column_.get(addr);
  a.rank = rank_.get(addr);
  a.bankgroup = bankgroup_.get(addr);
  a.bank = bank_.get(addr);
  a.row = row_.get(addr);
  return a;
}

std::uint64_t AddressMapper::compose(const Address& a) const {
  MONDE_REQUIRE(channel_.holds(a.channel), "channel out of range");
  MONDE_REQUIRE(column_.holds(a.column), "column out of range");
  MONDE_REQUIRE(rank_.holds(a.rank), "rank out of range");
  MONDE_REQUIRE(bankgroup_.holds(a.bankgroup), "bankgroup out of range");
  MONDE_REQUIRE(bank_.holds(a.bank), "bank out of range");
  MONDE_REQUIRE(row_.holds(a.row), "row out of range");
  return channel_.put(a.channel) | column_.put(a.column) | rank_.put(a.rank) |
         bankgroup_.put(a.bankgroup) | bank_.put(a.bank) | row_.put(a.row);
}

}  // namespace monde::dram
