// Forward declaration of the query-layer execution interface, for
// kernel headers that declare DataSource entry points without pulling
// in the backend machinery.
#pragma once

namespace tokyonet::analysis::query {
class DataSource;
}
