// Forward declaration of the query-layer execution interface, for
// kernel headers that declare DataSource and Sweep entry points without
// pulling in the backend machinery.
#pragma once

namespace tokyonet::analysis::query {
class DataSource;
class Sweep;
template <typename T>
class Pending;
}
